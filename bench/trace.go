package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"
)

// span is one timed interval recorded from the benchmark's own files around
// a call into a layer: a replication, its assembly and run, or a D driver.
// Parent 0 means none. Times are microseconds since process start.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartUS int64  `json:"start_us"`
	EndUS   int64  `json:"end_us"`
}

// spanLog keeps spans in memory until the pass ends. A nil log records
// nothing, which is how the untraced pass runs.
type spanLog struct{ spans []span }

func (l *spanLog) begin(name string, parent int) int {
	if l == nil {
		return 0
	}
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Name: name,
		StartUS: time.Since(processStart).Microseconds()})
	return len(l.spans)
}

func (l *spanLog) end(id int) {
	if l == nil || id == 0 {
		return
	}
	l.spans[id-1].EndUS = time.Since(processStart).Microseconds()
}

// tracedReps is the length of the traced pass's two blocks — the untraced
// reference and the profiled one, same seeds — at nominalSeconds: a third of
// the workload's timed replications (12 or 8), which keeps the pass about as
// long as the untraced run.
func tracedReps(w *workload) int { return (w.Reps + 1) / 3 }

// profiled runs fn under a 500 Hz CPU profile with allocation sampling every
// 4 KB, and returns the decoded CPU and allocation profiles.
func profiled(fn func() error) (cpu, alloc *profile, err error) {
	var cpuBuf, memBuf bytes.Buffer
	// StartCPUProfile insists on 100 Hz; setting the rate first makes its own
	// call a no-op (the runtime says so once on stderr) and 500 Hz stands.
	runtime.SetCPUProfileRate(500)
	if err := pprof.StartCPUProfile(&cpuBuf); err != nil {
		return nil, nil, err
	}
	runtime.MemProfileRate = 4096
	// The rate stays until the profile is written: the writer scales each
	// sampled size class up to what it stands for with the rate it finds then,
	// and at rate 0 it writes the raw samples, in which an object's weight
	// grows with the square of its size.
	defer func() { runtime.MemProfileRate = 0 }()
	err = fn()
	pprof.StopCPUProfile()
	if err != nil {
		return nil, nil, err
	}
	runtime.GC() // the allocation profile is published at the end of a GC cycle
	if err := pprof.Lookup("allocs").WriteTo(&memBuf, 0); err != nil {
		return nil, nil, err
	}
	if cpu, err = parseProfile(cpuBuf.Bytes()); err != nil {
		return nil, nil, err
	}
	alloc, err = parseProfile(memBuf.Bytes())
	return cpu, alloc, err
}

// traceDir is where the traced pass leaves trace_<workload>.json, relative
// to the root of the checkout, where the benchmark runs.
const traceDir = "bench/out"

// traceFile is what the traced pass writes there: the ledger (profile shares
// included) and the spans.
type traceFile struct {
	Workload string           `json:"workload"`
	Seed     int64            `json:"seed"`
	Reps     int              `json:"replications"`
	Metrics  map[string]value `json:"per_layer"`
	Spans    []span           `json:"spans"`
}

func (t *traceFile) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(t, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("trace_%s.json", t.Workload)), b, 0o644)
}
