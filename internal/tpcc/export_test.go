package tpcc

// IssuedOfClass reports submissions of one top-level mix class.
func (a *Aggregate) IssuedOfClass(c ArrivalClass) int64 { return a.issuedByClass[c] }
