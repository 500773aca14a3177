// Command analyze runs the repository's invariant linter suite
// (simdeterminism, poolpair, statcount, hotalloc). Zero-copy buffer
// ownership is not among them: race builds check it at the event, in
// internal/simnet.
//
// It speaks two protocols:
//
//	analyze ./...                         # standalone, via `go list -export`
//	go vet -vettool=$(which analyze) ./...  # unitchecker, via vet .cfg files
//
// In both modes diagnostics are printed as file:line:col: message
// [analyzer] and the exit status is 2 when any diagnostic is reported,
// matching go vet conventions.
package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lint/analysis"
	"repro/internal/lint/driver"
)

func main() {
	if err := analysis.Validate(driver.Analyzers()); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	printVersion := flag.String("V", "", "print version and exit (cmd/go tool protocol)")
	printFlags := flag.Bool("flags", false, "print analyzer flags in JSON (cmd/go tool protocol)")
	flag.Usage = usage
	flag.Parse()

	switch {
	case *printVersion == "full":
		version()
		return
	case *printVersion != "":
		fmt.Printf("%s version devel\n", progName())
		return
	case *printFlags:
		// No analyzer-specific flags are exposed to cmd/go.
		fmt.Println("[]")
		return
	}

	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(1)
	}

	var (
		diags []driver.Diagnostic
		err   error
	)
	if strings.HasSuffix(args[0], ".cfg") {
		// Invoked by `go vet -vettool` with a unit config.
		diags, err = driver.RunConfig(args[0])
	} else {
		wd, werr := os.Getwd()
		if werr != nil {
			fmt.Fprintln(os.Stderr, werr)
			os.Exit(1)
		}
		diags, err = driver.Analyze(wd, args...)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", progName(), err)
		os.Exit(1)
	}
	for _, d := range diags {
		fmt.Fprintln(os.Stderr, d)
	}
	if len(diags) > 0 {
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, "usage: %s package...\n       go vet -vettool=%s package...\n\nAnalyzers:\n", progName(), progName())
	for _, a := range driver.Analyzers() {
		doc := a.Doc
		if i := strings.IndexByte(doc, '\n'); i >= 0 {
			doc = doc[:i]
		}
		fmt.Fprintf(os.Stderr, "  %-16s %s\n", a.Name, doc)
	}
}

func progName() string {
	return strings.TrimSuffix(filepath.Base(os.Args[0]), ".exe")
}

// version implements the -V=full handshake cmd/go uses to fingerprint
// vet tools for its build cache: the last field must be a content hash
// of the tool binary.
func version() {
	h := sha256.New()
	if exe, err := os.Executable(); err == nil {
		if f, err := os.Open(exe); err == nil {
			io.Copy(h, f)
			f.Close()
		}
	}
	fmt.Printf("%s version devel buildID=%x\n", progName(), h.Sum(nil)[:16])
}
