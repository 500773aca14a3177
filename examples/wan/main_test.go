package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRun executes the example end to end: every member must deliver all 400
// messages (run's own check) and the report must close on that line.
func TestRun(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(out.String(), "delivered all 400 messages in the same total order.\n") {
		t.Fatalf("report does not close on the total-order line:\n%s", out.String())
	}
}
