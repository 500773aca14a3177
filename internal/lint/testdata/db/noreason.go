// Package db exercises the bare-directive rule: a waiver without a reason is
// itself a finding, reported at the directive. The directive ends the line,
// so no // want can share it; lint_test.go's TestBareDirective asserts the
// finding instead.
package db

import "time"

func bare() {
	time.Sleep(1) //lint:simdeterminism-ok
}
