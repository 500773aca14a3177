package core

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/gcs"
	"repro/internal/metrics"
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

// TestVerdict pins the one clean-run rule: each must-be-zero condition alone
// makes Verdict non-nil on the run and on an aggregate that contains the run
// next to a clean one; all zero is nil.
func TestVerdict(t *testing.T) {
	newClean := func() *Results {
		return &Results{ // the samples AggregateRuns merges must exist
			LatCommitted: &metrics.Sample{}, LatReadOnly: &metrics.Sample{}, LatUpdate: &metrics.Sample{},
			CertLat: &metrics.Sample{}, CertDecideLat: &metrics.Sample{},
		}
	}
	if v := newClean().Verdict(); v != nil {
		t.Fatalf("clean run: %v", v)
	}
	if v := AggregateRuns([]*Results{newClean(), newClean()}).Verdict(); v != nil {
		t.Fatalf("clean aggregate: %v", v)
	}
	violation := errors.New("site 2 diverges at position 7")
	for _, c := range []struct {
		name string
		set  func(*Results)
		want string
	}{
		{"safety", func(r *Results) { r.SafetyErr = violation }, violation.Error()},
		{"rejoin", func(r *Results) { r.RejoinViolations = 1 }, "1 rejoin prefix violations"},
		{"inconsistency", func(r *Results) { r.Inconsistencies = 2 }, "2 local/global inconsistencies"},
		{"certdrop", func(r *Results) { r.CertDrops = 3 }, "3 certification payloads dropped on unmarshal"},
		{"parse", func(r *Results) { r.GCS.ParseErrors = 4 }, "4 gcs wire messages dropped on parse"},
	} {
		r := newClean()
		c.set(r)
		if v := r.Verdict(); v == nil || v.Error() != c.want {
			t.Errorf("%s: run verdict %v, want %q", c.name, v, c.want)
		}
		if v := AggregateRuns([]*Results{newClean(), r}).Verdict(); v == nil || v.Error() != c.want {
			t.Errorf("%s: aggregate verdict %v, want %q", c.name, v, c.want)
		}
	}
}
