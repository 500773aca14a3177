package simnet

// Network partitioning: a partition splits hosts into two components and
// silently discards every packet that would cross the cut, modeling a
// failed switch uplink or WAN circuit. The cut is applied at reception
// time, so packets in flight when the partition starts are lost too —
// exactly what a link going dark does to frames already serialized onto it.

// Partition isolates the listed hosts from every other host: traffic
// between the isolated component and the rest is discarded until Heal. A
// subsequent Partition call replaces the current cut. Hosts not listed
// remain mutually connected, as do the isolated hosts among themselves.
func (n *Network) Partition(isolated []NodeID) {
	n.isolated = make(map[NodeID]bool, len(isolated))
	for _, id := range isolated {
		n.isolated[id] = true
	}
}

// Heal removes the current partition; all hosts can communicate again.
func (n *Network) Heal() { n.isolated = nil }

// reachable reports whether traffic from a to b crosses the current cut.
func (n *Network) reachable(a, b NodeID) bool {
	if len(n.isolated) == 0 {
		return true
	}
	return n.isolated[a] == n.isolated[b]
}
