package simnet

// PartitionActive reports whether a cut is currently in place.
func (n *Network) PartitionActive() bool { return len(n.isolated) > 0 }

// PartitionDrops counts packets discarded at the cut.
func (n *Network) PartitionDrops() int64 { return n.partitionDrops }
