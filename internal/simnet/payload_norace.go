//go:build !race

package simnet

// checkPayload is on in race builds only (payload_race.go).
const checkPayload = false
