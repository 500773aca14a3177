package replica

// ShelvedXStores reports how many stores released cross-group managers left
// on the shelf, the record capacity those hold and the records and
// transactions still in them (a transaction record that still names its
// manager or holds a transaction's state counts), and leaves them there in
// their order.
func ShelvedXStores() (stores, recordCap, kept int) {
	var all []xStore
	for {
		st, ok := xStores.Get()
		if !ok {
			break
		}
		all = append(all, st)
	}
	for i := len(all) - 1; i >= 0; i-- {
		st := all[i]
		recordCap += cap(st.records)
		kept += len(st.records) + len(st.pending)
		for _, b := range st.txns {
			for i := range b {
				if e := &b[i]; e.x != nil || e.tid != 0 || e.enc != nil || e.cert.WriteSet != nil {
					kept++
				}
			}
		}
		xStores.Put(st)
	}
	return len(all), recordCap, kept
}
