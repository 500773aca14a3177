package explore

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/tpcc"
)

// fillNonZero gives every field JSON carries under v a distinct non-zero
// value: pointers are allocated, slices get one element, and struct fields
// tagged json:"-" are left alone.
func fillNonZero(t *testing.T, v reflect.Value, n *int64) {
	t.Helper()
	*n++
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).Tag.Get("json") != "-" {
				fillNonZero(t, v.Field(i), n)
			}
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillNonZero(t, v.Elem(), n)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		fillNonZero(t, v.Index(0), n)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int32, reflect.Int64:
		v.SetInt(*n)
	case reflect.Float64:
		v.SetFloat(float64(*n) / 8)
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", *n))
	default:
		t.Fatalf("core.Config grew a %s field: teach fillNonZero to set it, and make sure JSON carries it", v.Kind())
	}
}

// TestReproCarriesWholeConfig is the guard against a repro that replays a
// different run than the one that failed: with every JSON-carried Config
// field set, what LoadRepro hands back must be exactly what ReproOf was
// given. Version 1 mirrored nine
// fields by hand and lost the rest; a field added to core.Config later is
// covered here without anyone remembering to.
func TestReproCarriesWholeConfig(t *testing.T) {
	var base core.Config
	var n int64
	fillNonZero(t, reflect.ValueOf(&base).Elem(), &n)

	params := campaign.Params{Sites: 3, Horizon: 15 * sim.Second}
	genes := []Gene{{Kind: GenePartition, Sites: []int32{1}, At: 10 * sim.Second, Until: 12 * sim.Second}}
	const seed = 77
	want := Config(base, params, genes, seed)
	if len(want.Faults.Partitions) != 1 {
		t.Fatalf("the schedule did not reach the config: %+v", want.Faults)
	}
	r, err := ReproOf(want, nil)
	if err != nil {
		t.Fatal(err)
	}
	path, err := r.Save(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadRepro(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loaded.Config, want) {
		t.Fatalf("repro lost part of the run:\n got %+v\nwant %+v", loaded.Config, want)
	}

	// The one field JSON does not carry is refused, not dropped.
	want.Calibration = tpcc.DefaultCalibration()
	if _, err := ReproOf(want, nil); err == nil {
		t.Fatal("ReproOf accepted a config with a Calibration the file cannot carry")
	}
}

// TestLoadReproRejectsOldVersions pins the one-way format changes: a
// version-1 or version-2 file is refused by its number, not half-read
// through the version-3 struct.
func TestLoadReproRejectsOldVersions(t *testing.T) {
	for v, file := range map[int]string{
		1: `{"version": 1, "protocol": "conservative", "sites": 3}`,
		2: `{"version": 2, "config": {"sites": 3, "admission": {"MaxActivePerSite": 64, "Retry": {"MaxAttempts": 4}}}, "expect": {"verdict": "UNSAFE", "kind": "wedged"}}`,
	} {
		path := filepath.Join(t.TempDir(), "old.json")
		if err := os.WriteFile(path, []byte(file), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadRepro(path); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("version %d", v)) {
			t.Fatalf("LoadRepro(v%d) = %v, want an error naming version %d", v, err, v)
		}
	}
}

// TestLoadReproRejectsUnknownKey: a misspelled key in a hand-edited file is
// an error naming it, not a run of the default it failed to set.
func TestLoadReproRejectsUnknownKey(t *testing.T) {
	path := filepath.Join(t.TempDir(), "typo.json")
	if err := os.WriteFile(path, []byte(`{"version": 3, "config": {"sites": 3, "clinets": 60}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadRepro(path); err == nil || !strings.Contains(err.Error(), `"clinets"`) {
		t.Fatalf("LoadRepro(typo) = %v, want an error naming \"clinets\"", err)
	}
}

// FuzzLoadRepro holds the run-file parser to three properties on any input:
// it never panics, a file it accepts re-marshals to one that parses back to
// the same value, and every version but ReproVersion is refused. The seed
// corpus is every committed run file.
//
//	go test ./internal/explore -run '^$' -fuzz '^FuzzLoadRepro$' -fuzztime 20s -fuzzminimizetime 1s
func FuzzLoadRepro(f *testing.F) {
	for _, pattern := range []string{"../../configs/*.json", "../../cmd/faultsim/testdata/*.json"} {
		paths, err := filepath.Glob(pattern)
		if err != nil || len(paths) == 0 {
			f.Fatalf("%s: %v (%d files)", pattern, err, len(paths))
		}
		for _, path := range paths {
			b, err := os.ReadFile(path)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(b)
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		r, err := parseRepro(b)
		if err != nil {
			return
		}
		if r.Version != ReproVersion {
			t.Fatalf("accepted version %d", r.Version)
		}
		out, err := r.Marshal()
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		again, err := parseRepro(out)
		if err != nil {
			t.Fatalf("re-parse: %v\n%s", err, out)
		}
		if !reflect.DeepEqual(r, again) {
			t.Fatalf("round trip changed the run file:\n got %+v\nwant %+v", again, r)
		}
	})
}
