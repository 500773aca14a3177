//go:build !race

package gcs

// poisonRecycled is on in race builds only (poison_race.go).
const poisonRecycled = false
