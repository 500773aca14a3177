// Package golden is the test support behind the repository's golden files:
// one -update flag, one byte-for-byte comparison that names the first line
// that moved, and the os.Stdout capture that drives a command's run function
// in-process. Only tests import it.
package golden

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files from the current tree")

// Check requires got to equal the file at path byte for byte; under -update
// it writes the file instead.
func Check(t testing.TB, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("%s line %d:\n got %s\nwant %s", path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: %d lines, want %d", path, len(gl), len(wl))
}

// Stdout calls a command's run function with args, requires exit status 0,
// and returns what it wrote to os.Stdout. A file, not a pipe, takes the
// output so nothing has to drain it concurrently.
func Stdout(t testing.TB, run func([]string) int, args ...string) []byte {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stdout
	os.Stdout = f
	defer func() { os.Stdout = saved }()
	if status := run(args); status != 0 {
		t.Fatalf("%v: exit status %d", args, status)
	}
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return out
}
