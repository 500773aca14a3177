package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
)

// small shrinks a workload to one quick replication's worth of transactions,
// keeping everything else — topology, protocol, fault schedule — as measured.
func small(w workload) *workload {
	full := w.Config
	w.Config = func() core.Config {
		c := full()
		c.TotalTxns = 500
		return c
	}
	return &w
}

// TestWorkloadsSmoke runs every workload at 1 replication x 500 transactions
// through the untraced path: the gate (including each workload's "mechanism
// is live" check) must pass and all eight end-to-end metrics must come out
// finite and non-zero.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			sw := small(w)
			_, _, warm, err := replicate(sw, 1, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			p, err := runPass(sw, 1, 1, false, newSpeedometer(), nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			if bad := p.reps[0].Unclean; len(bad) > 0 {
				t.Fatalf("gate: %v", bad)
			}
			if p.reps[0].Print != warm.Print {
				t.Fatalf("same seed, different run:\n%s\n%s", warm.Print, p.reps[0].Print)
			}
			got, err := endToEndOf(p, 0.5)
			if err != nil {
				t.Fatal(err)
			}
			packed, err := pack(endToEnd, got)
			if err != nil {
				t.Fatal(err)
			}
			for name, v := range packed {
				if v.Value <= 0 || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s = %v", name, v.Value)
				}
			}
			if att, failed := p.ops(sw); att != 500 || failed <= 0 || failed >= att {
				t.Errorf("ops attempted=%d failed=%d", att, failed)
			}
		})
	}
}

// TestTracedPassSmoke runs the whole traced pass — reference block, profiled
// block, every D driver at a fraction of its size — on the reference workload
// and on the one that bypasses gcs/dbsm, and checks the ledger is complete
// and its shares sum to 100.
func TestTracedPassSmoke(t *testing.T) {
	for _, name := range []string{"lan3_cons", "agg1m_shed"} {
		t.Run(name, func(t *testing.T) {
			w, err := findWorkload(name)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			_, got, err := tracedPass(small(*w), 1, 1, 50, newSpeedometer(), dir)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := pack(perLayer, got); err != nil {
				t.Fatal(err)
			}
			for _, kind := range []string{".cpu_share_pct", ".alloc_share_pct"} {
				sum := 0.0
				for _, l := range layers {
					sum += got[l+kind]
				}
				// A 500-transaction run can be too short for a single
				// 500 Hz sample; then every share is 0.
				if sum != 0 && math.Abs(sum-100) > 0.5 {
					t.Errorf("%s shares sum to %v", kind, sum)
				}
			}
			b, err := os.ReadFile(dir + "/trace_" + name + ".json")
			if err != nil {
				t.Fatal(err)
			}
			var tf traceFile
			if err := json.Unmarshal(b, &tf); err != nil {
				t.Fatal(err)
			}
			if len(tf.Spans) < 3+len(drivers) || len(tf.Metrics) != len(perLayer) {
				t.Errorf("trace file has %d spans, %d metrics", len(tf.Spans), len(tf.Metrics))
			}
			for _, s := range tf.Spans {
				if s.EndUS < s.StartUS || s.Parent >= s.ID {
					t.Errorf("span %+v", s)
				}
			}
		})
	}
}

// TestGateCatchesIdleMechanism: a workload whose layer stopped working must
// fail its replication, not get faster.
func TestGateCatchesIdleMechanism(t *testing.T) {
	opt, err := findWorkload("lan3_opt")
	if err != nil {
		t.Fatal(err)
	}
	w := small(*opt)
	cons := w.Config
	w.Config = func() core.Config {
		c := cons()
		c.Protocol = core.ProtocolConservative // no tentative deliveries
		return c
	}
	p, err := runPass(w, 1, 1, false, newSpeedometer(), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.reps[0].Unclean) == 0 || p.ctr.reps != 0 {
		t.Fatalf("conservative run passed the optimistic workload's gate")
	}
	if att, failed := p.ops(w); failed != att {
		t.Errorf("unclean replication: %d of %d transactions counted failed", failed, att)
	}
	if _, err := endToEndOf(p, 0.5); err == nil {
		t.Error("metrics computed from no clean replication")
	}
}

func TestQuantiles(t *testing.T) {
	vals := []float64{9, 1, 5, 3, 7} // sorted: 1 3 5 7 9
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 3}, {0.5, 5}, {0.75, 7}, {1, 9}, {0.125, 2}, {0.99, 8.92},
	} {
		if got := quantile(vals, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if vals[0] != 9 {
		t.Error("quantile sorted its argument in place")
	}
	if s := summarize([]float64{4, 2}); s.Median != 3 || s.Q1 != 2.5 || s.Q3 != 3.5 || s.N != 2 {
		t.Errorf("summarize = %+v", s)
	}
	if quantile(nil, 0.5) != 0 || median(nil) != 0 || ratio(1, 0) != 0 {
		t.Error("empty inputs must give 0")
	}
}

// pb writes protobuf wire format, for the synthetic profile below.
type pb struct{ bytes.Buffer }

func (p *pb) varint(v uint64) {
	for v >= 0x80 {
		p.WriteByte(byte(v) | 0x80)
		v >>= 7
	}
	p.WriteByte(byte(v))
}
func (p *pb) uint(num int, v uint64) { p.varint(uint64(num) << 3); p.varint(v) }
func (p *pb) msg(num int, b []byte) {
	p.varint(uint64(num)<<3 | 2)
	p.varint(uint64(len(b)))
	p.Write(b)
}
func (p *pb) packed(num int, vs ...uint64) {
	var in pb
	for _, v := range vs {
		in.varint(v)
	}
	p.msg(num, in.Bytes())
}

// syntheticProfile builds a gzip'd profile.proto with columns samples/cpu.
// Each stack lists function names innermost first; every function gets its
// own location except that names joined by "<" share one location as an
// inlined chain (innermost first), the way the Go compiler reports inlining.
func syntheticProfile(t *testing.T, stacks [][]string, cpu []uint64, packedSamples bool) []byte {
	t.Helper()
	strs := []string{"", "samples", "count", "cpu", "nanoseconds"}
	strIdx := map[string]uint64{}
	intern := func(s string) uint64 {
		if i, ok := strIdx[s]; ok {
			return i
		}
		strs = append(strs, s)
		strIdx[s] = uint64(len(strs) - 1)
		return strIdx[s]
	}
	var prof pb
	for _, st := range [][2]uint64{{1, 2}, {3, 4}} {
		var vt pb
		vt.uint(1, st[0])
		vt.uint(2, st[1])
		prof.msg(1, vt.Bytes())
	}
	funcID := map[string]uint64{}
	locID := map[string]uint64{}
	var funcs, locs pb
	for i, stack := range stacks {
		var sample pb
		var ids []uint64
		for _, frame := range stack {
			if _, ok := locID[frame]; !ok {
				var loc pb
				locID[frame] = uint64(len(locID) + 1)
				loc.uint(1, locID[frame])
				for _, fn := range regexp.MustCompile("<").Split(frame, -1) {
					if _, ok := funcID[fn]; !ok {
						funcID[fn] = uint64(len(funcID) + 1)
						var f pb
						f.uint(1, funcID[fn])
						f.uint(2, intern(fn))
						funcs.msg(5, f.Bytes())
					}
					var line pb
					line.uint(1, funcID[fn])
					line.uint(2, 42)
					loc.msg(4, line.Bytes())
				}
				locs.msg(4, loc.Bytes())
			}
			ids = append(ids, locID[frame])
		}
		if packedSamples {
			sample.packed(1, ids...)
			sample.packed(2, 1, cpu[i])
		} else {
			for _, id := range ids {
				sample.uint(1, id)
			}
			sample.uint(2, 1)
			sample.uint(2, cpu[i])
		}
		prof.msg(2, sample.Bytes())
	}
	prof.Write(locs.Bytes())
	prof.Write(funcs.Bytes())
	for _, s := range strs {
		prof.msg(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(prof.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return gz.Bytes()
}

// TestProfileBucketing pins the ledger's attribution rule on a synthetic
// profile: a sample goes to the innermost frame in a ledger package, runtime
// frames under it included; repo packages that are not ledger rows are passed
// over; samples with no ledger frame go to goruntime; shares sum to 100.
func TestProfileBucketing(t *testing.T) {
	stacks := [][]string{
		// mallocgc under gcs under replica under the kernel: gcs self time.
		{"runtime.mallocgc", "repro/internal/gcs.(*relMcast).cast", "repro/internal/replica.(*Replica).terminate", "repro/internal/sim.(*Kernel).Step", "main.main"},
		// an inlined dbsm leaf inside a replica frame: the inlined callee wins.
		{"repro/internal/dbsm.ItemSet.Intersects<repro/internal/replica.(*Replica).onDeliver", "repro/internal/sim.(*Kernel).Step"},
		// trace is not a ledger row: its time belongs to the calling layer.
		{"runtime.growslice", "repro/internal/trace.(*CommitLog).Append", "repro/internal/replica.(*Replica).commit"},
		// a closure and a generic instantiation keep their package.
		{"repro/internal/core.New.func1", "repro/internal/sim.(*Kernel).Step"},
		{"repro/internal/tpcc.pick[...]", "main.main"},
		// background GC and the harness itself: no ledger frame.
		{"runtime.gcBgMarkWorker"},
		{"main.runPass", "main.main"},
	}
	cpu := []uint64{30, 20, 10, 5, 5, 20, 10}
	want := map[string]float64{"gcs": 30, "dbsm": 20, "replica": 10, "core": 5, "tpcc": 5, "goruntime": 30}
	for _, packedSamples := range []bool{true, false} {
		p, err := parseProfile(syntheticProfile(t, stacks, cpu, packedSamples))
		if err != nil {
			t.Fatal(err)
		}
		if len(p.samples) != len(stacks) || len(p.types) != 2 {
			t.Fatalf("parsed %d samples, columns %v", len(p.samples), p.types)
		}
		if got := p.samples[1].stack; len(got) != 3 || got[0] != "repro/internal/dbsm.ItemSet.Intersects" {
			t.Errorf("inlined chain decoded as %v", got)
		}
		shares, err := p.shares("cpu")
		if err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for _, l := range layers {
			sum += shares[l]
			if math.Abs(shares[l]-want[l]) > 1e-9 {
				t.Errorf("%s share = %v, want %v", l, shares[l], want[l])
			}
		}
		if math.Abs(sum-100) > 1e-9 {
			t.Errorf("shares sum to %v", sum)
		}
		if byCount, _ := p.shares("samples"); math.Abs(byCount["goruntime"]-100*2.0/7) > 1e-9 {
			t.Errorf("samples column: goruntime = %v", byCount["goruntime"])
		}
		if _, err := p.shares("alloc_space"); err == nil {
			t.Error("missing column not reported")
		}
	}
	if _, err := parseProfile([]byte("not gzip")); err == nil {
		t.Error("garbage accepted")
	}
	empty := &profile{types: []string{"cpu"}}
	if s, err := empty.shares("cpu"); err != nil || s["goruntime"] != 0 {
		t.Errorf("empty profile: %v %v", s, err)
	}
}

var allocKeep [][]byte

//go:noinline
func allocSmall(n int) {
	for i := 0; i < n; i++ {
		allocKeep[i%len(allocKeep)] = make([]byte, 64)
	}
}

//go:noinline
func allocLarge(n int) {
	for i := 0; i < n; i++ {
		allocKeep[i%len(allocKeep)] = make([]byte, 6400)
	}
}

// TestAllocProfileScaled takes the allocation profile through the runtime's
// own writer, which the synthetic profile above cannot: equal bytes allocated
// as small and as large objects must weigh about the same in alloc_space. With
// the raw samples (what the writer emits at MemProfileRate 0) the large
// objects would carry 98 % of the bytes.
func TestAllocProfileScaled(t *testing.T) {
	old := runtime.MemProfileRate
	defer func() { runtime.MemProfileRate = old }()
	allocKeep = make([][]byte, 64)
	_, prof, err := profiled(func() error {
		allocSmall(1_000_000)
		allocLarge(10_000)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	col := -1
	for i, name := range prof.types {
		if name == "alloc_space" {
			col = i
		}
	}
	if col < 0 {
		t.Fatalf("no alloc_space column in %v", prof.types)
	}
	var small, large float64
	for _, s := range prof.samples {
		for _, fn := range s.stack {
			switch {
			case strings.HasSuffix(fn, ".allocSmall"):
				small += float64(s.values[col])
			case strings.HasSuffix(fn, ".allocLarge"):
				large += float64(s.values[col])
			}
		}
	}
	if share := 100 * ratio(small, small+large); share < 40 || share > 60 {
		t.Errorf("64 B objects carry %.1f%% of the bytes allocated, 6400 B objects the rest; they allocated 64 MB each", share)
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the tables in this package: the
// same workloads and metrics, by name, unit and direction, and the contract's
// limits on names, units, reasons and bounds.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark directory:", err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var f struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	if f.RunSeconds != nominalSeconds {
		t.Errorf("run_seconds %d, replication counts are sized for %d", f.RunSeconds, nominalSeconds)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the benchmark", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.Name || f.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q", i, f.Workloads[i].Name)
		}
		if len(w.Why) > 200 || !nameRE.MatchString(w.Name) {
			t.Errorf("workload %s: name or why outside the contract's limits (%d chars)", w.Name, len(w.Why))
		}
	}
	check := func(kind string, got []metric, defs []metricDef, bounded bool) {
		if len(got) != len(defs) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the benchmark", kind, len(got), len(defs))
		}
		for i, d := range defs {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the benchmark %+v", kind, i, g, d)
			}
			if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) {
				t.Errorf("%s: name or unit outside the contract's limits", d.Name)
			}
			if bounded != (g.Bound != nil) || (bounded && (*g.Bound <= 0 || *g.Bound > 0.25)) {
				t.Errorf("%s: bound %v", d.Name, g.Bound)
			}
		}
	}
	check("end_to_end", f.EndToEnd, endToEnd, true)
	check("per_layer", f.PerLayer, perLayer, false)
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(perLayer))
	}
}
