//go:build !race

package sim

// checkDoublePut is on in race builds only (freelist_race.go).
const checkDoublePut = false
