package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"text/tabwriter"
)

// runResult is one child process's two output lines.
type runResult struct {
	detail
	result
}

// child runs one workload in its own process, so no workload inherits
// another's heap, pools or page cache state, and returns what it printed.
func child(name string, seed int64, seconds int, traced bool) (*runResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	t := "0"
	if traced {
		t = "1"
	}
	cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", t)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s (trace %s): %w", name, t, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if len(lines) < 2 {
		return nil, fmt.Errorf("%s: expected detail and result lines, got %q", name, out)
	}
	var r runResult
	if err := json.Unmarshal(lines[len(lines)-2], &r.detail); err != nil {
		return nil, fmt.Errorf("%s: detail line: %w", name, err)
	}
	if err := json.Unmarshal(lines[len(lines)-1], &r.result); err != nil {
		return nil, fmt.Errorf("%s: result line: %w", name, err)
	}
	return &r, nil
}

// set runs the five workloads in turn, untraced or traced.
func set(seed int64, seconds int, traced bool) ([]*runResult, error) {
	var out []*runResult
	for _, w := range workloads {
		fmt.Fprintf(os.Stderr, "bench: running %s (trace %v)\n", w.Name, traced)
		r, err := child(w.Name, seed, seconds, traced)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

func num(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }

// table prints one row per metric and one column per workload.
func table(title string, defs []metricDef, runs []*runResult) {
	fmt.Printf("\n%s\n", title)
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	head := "metric\tunit\tclock"
	for _, r := range runs {
		head += "\t" + r.Workload
	}
	fmt.Fprintln(tw, head)
	for _, d := range defs {
		row := d.Name + "\t" + d.Unit + "\t" + d.Scope
		for _, r := range runs {
			row += "\t" + num(r.Metrics[d.Name].Value)
		}
		fmt.Fprintln(tw, row)
	}
	tw.Flush()
}

// runAll is the one command that prints every metric by name: the untraced
// set for the end-to-end numbers, then the traced set for the ledger.
func runAll(seed int64, seconds int) error {
	plain, err := set(seed, seconds, false)
	if err != nil {
		return err
	}
	traced, err := set(seed, seconds, true)
	if err != nil {
		return err
	}
	table("end-to-end (untraced pass)", endToEnd, plain)
	fmt.Println()
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\treplications\tnot clean\tops_attempted\tops_failed\tfailed %\ttxn/s q1..q3 (n)\traw txn/s median\tspeed index\tlatency n\tsim_fingerprint\tcorrect")
	for _, r := range plain {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%.2f\t%s..%s (%d)\t%s\t%.3f\t%d\t%s\t%v\n",
			r.Workload, r.Attempted, r.Failed, r.OpsAttempted, r.OpsFailed,
			100*ratio(float64(r.OpsFailed), float64(r.OpsAttempted)),
			num(r.TxnPerWallS.Q1), num(r.TxnPerWallS.Q3), r.TxnPerWallS.N, num(r.RawTxnPerWallS.Median),
			r.SpeedIndex.Median, r.LatencyN, r.Fingerprint, r.Correct)
	}
	tw.Flush()
	table("per-layer (traced pass: model counters, drivers, profile shares)", perLayer, traced)
	for _, r := range append(plain, traced...) {
		if !r.Correct {
			return fmt.Errorf("%s: the run did not reproduce its own warm-up", r.Workload)
		}
	}
	return nil
}

// benchmarkFile is the part of BENCHMARK.json `repeat` reads: the bounds.
type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

func loadBounds() (map[string]float64, error) {
	// The benchmark runs from the root of the checkout, beside the file.
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, fmt.Errorf("repeat: %w", err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("repeat: BENCHMARK.json: %w", err)
	}
	bounds := map[string]float64{}
	for _, m := range f.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	for _, d := range endToEnd {
		if _, ok := bounds[d.Name]; !ok {
			return nil, fmt.Errorf("repeat: BENCHMARK.json has no bound for %s", d.Name)
		}
	}
	return bounds, nil
}

// worse is how far b is worse than a, as a share of a, in the metric's
// direction; negative when b is better.
func worse(d metricDef, a, b float64) float64 {
	rel := ratio(b-a, math.Abs(a))
	if d.Better == "higher" {
		return -rel
	}
	return rel
}

// runRepeat runs the untraced set twice on the same seed and holds the
// benchmark to its own bounds: simulated numbers and fingerprints must be
// identical, host numbers must agree within the bound in either direction.
// When the machine's speed index moved more than 5% between the two runs of a
// workload the machine drifted, and host metrics that disagree are reported
// as unresolved rather than as disagreeing.
func runRepeat(seed int64, seconds int) error {
	bounds, err := loadBounds()
	if err != nil {
		return err
	}
	first, err := set(seed, seconds, false)
	if err != nil {
		return err
	}
	second, err := set(seed, seconds, false)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tclock\tfirst\tsecond\tdiff %\tbound %\tverdict")
	var bad []string
	for i, a := range first {
		b := second[i]
		calibA, calibB := a.SpeedIndex.Median, b.SpeedIndex.Median
		drifted := math.Abs(ratio(calibB-calibA, calibA)) > 0.05
		if a.Fingerprint != b.Fingerprint {
			bad = append(bad, a.Workload+": sim_fingerprint "+a.Fingerprint+" vs "+b.Fingerprint)
		}
		for _, d := range endToEnd {
			va, vb := a.Metrics[d.Name].Value, b.Metrics[d.Name].Value
			diff := math.Abs(worse(d, va, vb))
			verdict := "ok"
			switch {
			case d.Scope == "sim" && va != vb:
				verdict = "DIFFERS (simulated numbers must repeat exactly)"
			case d.Scope == "host" && diff > bounds[d.Name] && drifted:
				verdict = fmt.Sprintf("unresolved (machine speed moved %.1f%%)", 100*ratio(calibB-calibA, calibA))
			case d.Scope == "host" && diff > bounds[d.Name]:
				verdict = "DISAGREES"
			}
			if strings.HasPrefix(verdict, "D") {
				bad = append(bad, a.Workload+": "+d.Name)
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%.2f\t%.1f\t%s\n", a.Workload, d.Name, d.Scope,
				num(va), num(vb), 100*diff, 100*bounds[d.Name], verdict)
		}
	}
	tw.Flush()
	if len(bad) > 0 {
		return fmt.Errorf("repeat: two sets of the same commit disagree on: %s", strings.Join(bad, "; "))
	}
	return nil
}
