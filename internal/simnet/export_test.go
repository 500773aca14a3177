package simnet

import "repro/internal/metrics"

// PartitionActive reports whether a cut is currently in place.
func (n *Network) PartitionActive() bool { return len(n.isolated) > 0 }

// PartitionDrops counts packets discarded at the cut.
func (n *Network) PartitionDrops() int64 { return n.partitionDrops }

// Received exposes the bytes successfully delivered to this host.
func (h *Host) Received() *metrics.ByteMeter { return &h.received }
