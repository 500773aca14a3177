package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/explore"
)

// dumpConfigs is a test of package bench that writes every workload's Config,
// keyed by name, as JSON to the file its first argument names.
const dumpConfigs = `package main

import (
	"encoding/json"
	"flag"
	"os"
	"testing"

	"repro/internal/core"
)

func TestDumpConfigs(t *testing.T) {
	cfgs := map[string]core.Config{}
	for _, w := range workloads {
		cfgs[w.Name] = w.Config()
		if cfgs[w.Name].Calibration != nil {
			t.Fatalf("%s sets a Calibration, which a run file cannot carry", w.Name)
		}
	}
	b, err := json.Marshal(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(flag.Arg(0), b, 0o644); err != nil {
		t.Fatal(err)
	}
}
`

// TestConfigsMatchBench holds configs/<workload>.json to bench's Go literal
// of the same name while the two coexist. It builds bench's tests with one
// more file, laid in by a build overlay so nothing under bench/ changes, that
// dumps bench's own workload table. ROADMAP item 7(g) deletes this test once
// bench loads configs/.
func TestConfigsMatchBench(t *testing.T) {
	dir := t.TempDir()
	benchDir, err := filepath.Abs(filepath.Join("..", "..", "bench"))
	if err != nil {
		t.Fatal(err)
	}
	src := filepath.Join(dir, "dump_test.go")
	overlay, err := json.Marshal(map[string]map[string]string{
		"Replace": {filepath.Join(benchDir, "dump_configs_test.go"): src},
	})
	if err != nil {
		t.Fatal(err)
	}
	overlayFile, out := filepath.Join(dir, "overlay.json"), filepath.Join(dir, "configs.json")
	if err := os.WriteFile(src, []byte(dumpConfigs), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(overlayFile, overlay, 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("go", "test", "-overlay", overlayFile, "-count=1", "-run", "^TestDumpConfigs$", ".", "-args", out)
	cmd.Dir = benchDir
	if msg, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("dumping bench's workloads: %v\n%s", err, msg)
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var bench map[string]core.Config
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	if len(bench) != 5 {
		t.Fatalf("bench has %d workloads, want 5", len(bench))
	}
	for name, want := range bench {
		file, err := explore.LoadRepro(filepath.Join("..", "..", "configs", name+".json"))
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if file.Expect != "" || !reflect.DeepEqual(file.Config, want) {
			got, _ := json.Marshal(file)
			lit, _ := json.Marshal(want)
			t.Errorf("configs/%s.json differs from bench's literal:\n file %s\nbench %s", name, got, lit)
		}
	}
}
