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

// TestLoadReproRejectsVersion1 pins the one-way format change: a version-1
// file is refused by name, not half-read through the version-2 struct.
func TestLoadReproRejectsVersion1(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v1.json")
	if err := os.WriteFile(path, []byte(`{"version": 1, "protocol": "conservative", "sites": 3}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadRepro(path); err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("LoadRepro(v1) = %v, want an error naming version 1", err)
	}
}

// TestLoadReproRejectsUnknownKey: a misspelled key in a hand-edited file is
// an error naming it, not a run of the default it failed to set.
func TestLoadReproRejectsUnknownKey(t *testing.T) {
	path := filepath.Join(t.TempDir(), "typo.json")
	if err := os.WriteFile(path, []byte(`{"version": 2, "config": {"sites": 3, "clinets": 60}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadRepro(path); err == nil || !strings.Contains(err.Error(), `"clinets"`) {
		t.Fatalf("LoadRepro(typo) = %v, want an error naming \"clinets\"", err)
	}
}
