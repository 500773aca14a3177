package poolpair_test

import (
	"testing"

	"repro/internal/lint/linttest"
	"repro/internal/lint/poolpair"
)

func TestGetPutPairing(t *testing.T) {
	linttest.Run(t, poolpair.Analyzer, "poolpair")
}

func TestFreeListHygiene(t *testing.T) {
	linttest.Run(t, poolpair.Analyzer, "freelist")
	linttest.Run(t, poolpair.Analyzer, "sim") // no // want: package sim may pop by hand
}
