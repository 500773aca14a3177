//go:build !race

package db

// poisonRecycled is on in race builds only (poison_race.go).
const poisonRecycled = false
