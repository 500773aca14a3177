package dbsm

// HistoryLen reports the retained committed write-sets.
func (c *Certifier) HistoryLen() int { return c.hist.n }
