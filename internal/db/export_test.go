package db

import "repro/internal/metrics"

// WaiterCount reports how many waiters are queued.
func (lm *LockManager) WaiterCount() int {
	n := 0
	for _, ws := range lm.waiters {
		n += len(ws)
	}
	return n
}

// Backpressured reports the admission gate state.
func (s *Server) Backpressured() bool { return s.backpressured }

// ActiveCount reports in-flight transactions.
func (s *Server) ActiveCount() int { return len(s.active) }

// AbortRate reports aborted/completed as a percentage.
func (c *ClassStats) AbortRate() float64 {
	done := c.Committed + c.Aborted()
	return metrics.Rate(c.Aborted(), done)
}

// MaxQueueLen reports the high-water queue length.
func (s *Storage) MaxQueueLen() int { return s.maxQueue }
