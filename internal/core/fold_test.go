package core

import (
	"reflect"
	"testing"

	"repro/internal/gcs"
	"repro/internal/replica"
)

// TestStatsFoldsAreTotal keeps accumulateGCS and accumulateReplica from
// forgetting a counter: every numeric field of the Stats structs, set to a
// distinct non-zero value, must arrive in a zero accumulator. A field added
// to either struct without a fold line fails here, not silently in a report.
func TestStatsFoldsAreTotal(t *testing.T) {
	fill := func(v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			if !f.CanInt() {
				t.Fatalf("%s.%s: kind %s is not covered by this test", v.Type(), v.Type().Field(i).Name, f.Kind())
			}
			f.SetInt(int64(i + 1))
		}
	}
	check := func(dst, src reflect.Value) {
		for i := 0; i < dst.NumField(); i++ {
			if got, want := dst.Field(i).Int(), src.Field(i).Int(); got != want {
				t.Errorf("%s.%s folds to %d, want %d", dst.Type(), dst.Type().Field(i).Name, got, want)
			}
		}
	}

	var gsrc, gdst gcs.Stats
	fill(reflect.ValueOf(&gsrc).Elem())
	accumulateGCS(&gdst, gsrc)
	check(reflect.ValueOf(gdst), reflect.ValueOf(gsrc))

	var rsrc, rdst replica.Stats
	fill(reflect.ValueOf(&rsrc).Elem())
	accumulateReplica(&rdst, rsrc)
	check(reflect.ValueOf(rdst), reflect.ValueOf(rsrc))
}
