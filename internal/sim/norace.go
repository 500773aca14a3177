//go:build !race

package sim

// RaceBuild is on in race builds only (race.go).
const RaceBuild = false
