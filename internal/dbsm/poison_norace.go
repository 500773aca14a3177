//go:build !race

package dbsm

// poisonRecycled is on in race builds only (poison_race.go).
const poisonRecycled = false
