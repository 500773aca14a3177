// Command faultsim mirrors a front end whose stdout is pinned by a golden
// file: the package is named main, so the rule finds it by its directory —
// the final element of its import path — and an elapsed-wall print on the
// way to stdout is reported like any other host-clock read.
package main

import (
	"fmt"
	"time"
)

func main() {
	start := time.Now() // want `time.Now in deterministic package`
	fmt.Println("44 runs")
	fmt.Printf("in %v\n", time.Since(start).Round(time.Millisecond)) // want `time.Since in deterministic package`
	//lint:simdeterminism-ok progress on stderr, never part of the golden stdout
	fmt.Println(time.Since(start) > 2*time.Second)
}
