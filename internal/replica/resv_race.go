//go:build race

package replica

// checkResv makes onStream recompute the reservation table from pending
// after every prepare and decide delivery (checkActive), so each `go test
// -race` run proves xmgr.active is the set the full scan used to find.
const checkResv = true
