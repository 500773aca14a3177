//go:build !race

package replica

// checkResv is on in race builds only (resv_race.go).
const checkResv = false
