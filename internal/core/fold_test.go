package core

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/gcs"
	"repro/internal/replica"
)

// foldEachField drives fold over one Stats type field by field: with only
// that field set (5 in the accumulator, then 3 and 9 folded in), a counter
// must sum to 17 and a `fold:"max"` gauge must end at 9, and no other field
// may move. It returns the names of the max-folded fields.
func foldEachField[T any](t *testing.T) []string {
	t.Helper()
	var maxed []string
	typ := reflect.TypeOf(*new(T))
	for i := 0; i < typ.NumField(); i++ {
		var dst T
		reflect.ValueOf(&dst).Elem().Field(i).SetInt(5)
		for _, v := range []int64{3, 9} {
			var src T
			reflect.ValueOf(&src).Elem().Field(i).SetInt(v)
			fold(&dst, src)
		}
		want := int64(17)
		if typ.Field(i).Tag.Get("fold") == "max" {
			want = 9
			maxed = append(maxed, typ.Field(i).Name)
		}
		for j := 0; j < typ.NumField(); j++ {
			got := reflect.ValueOf(dst).Field(j).Int()
			switch {
			case j == i && got != want:
				t.Errorf("%s.%s folds 5,3,9 to %d, want %d", typ, typ.Field(i).Name, got, want)
			case j != i && got != 0:
				t.Errorf("%s.%s moved to %d while folding %s alone", typ, typ.Field(j).Name, got, typ.Field(i).Name)
			}
		}
	}
	return maxed
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: fold did not panic", what)
		}
	}()
	fn()
}

// TestFold pins the one fold both layers' Stats go through: every field
// alone sums, the two peak gauges — marked at their declaration — take the
// maximum, and a field the rule does not cover fails loudly instead of being
// dropped on the way to the report.
func TestFold(t *testing.T) {
	if got := foldEachField[gcs.Stats](t); !reflect.DeepEqual(got, []string{"QueuePeakBytes"}) {
		t.Errorf("gcs.Stats max-folded fields = %v, want [QueuePeakBytes]", got)
	}
	if got := foldEachField[replica.Stats](t); !reflect.DeepEqual(got, []string{"BacklogPeak"}) {
		t.Errorf("replica.Stats max-folded fields = %v, want [BacklogPeak]", got)
	}
	mustPanic(t, "non-integer field", func() {
		type bad struct {
			N    int64
			Rate float64
		}
		fold(&bad{}, bad{})
	})
	mustPanic(t, "unknown fold tag", func() {
		type bad struct {
			N int64 `fold:"min"`
		}
		fold(&bad{}, bad{})
	})
}

// TestStatsReachResults sets every replica.Stats and gcs.Stats field on one
// site — as a dead incarnation's counters, the one place a test can plant
// them — and requires each to arrive in Results on top of what the run
// itself counted: summed, or as the maximum for the peak gauges. It also
// keeps Results from declaring a field that shadows a promoted counter.
func TestStatsReachResults(t *testing.T) {
	m, err := New(Config{Sites: 3, Clients: 30, TotalTxns: 100, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	base, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	const planted = int64(1) << 40 // far above anything a 100-txn run counts
	plant := func(v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			v.Field(i).SetInt(planted + int64(i))
		}
	}
	plant(reflect.ValueOf(&m.sites[1].deadReplica).Elem())
	plant(reflect.ValueOf(&m.sites[1].deadGCS).Elem())
	got := m.results()

	check := func(got, base reflect.Value) {
		typ := got.Type()
		for i := 0; i < typ.NumField(); i++ {
			want := base.Field(i).Int() + planted + int64(i)
			if typ.Field(i).Tag.Get("fold") == "max" {
				want = planted + int64(i)
			}
			if g := got.Field(i).Int(); g != want {
				t.Errorf("%s.%s = %d in Results, want %d", typ, typ.Field(i).Name, g, want)
			}
		}
	}
	check(reflect.ValueOf(got.Stats), reflect.ValueOf(base.Stats))
	check(reflect.ValueOf(got.GCS), reflect.ValueOf(base.GCS))

	res := reflect.TypeOf(Results{})
	for i := 0; i < res.NumField(); i++ {
		if f := res.Field(i); !f.Anonymous {
			if _, dup := reflect.TypeOf(replica.Stats{}).FieldByName(f.Name); dup {
				t.Errorf("Results.%s shadows the replica.Stats counter of the same name", f.Name)
			}
		}
	}
}

// TestVerdict pins the one clean-run rule: each must-be-zero condition alone
// makes Verdict non-nil on the run and on an aggregate that contains the run
// next to a clean one; all zero is nil.
func TestVerdict(t *testing.T) {
	if v := (&Results{}).Verdict(); v != nil {
		t.Fatalf("clean run: %v", v)
	}
	if v := AggregateRuns([]*Results{{}, {}}).Verdict(); v != nil {
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
		r := &Results{}
		c.set(r)
		if v := r.Verdict(); v == nil || v.Error() != c.want {
			t.Errorf("%s: run verdict %v, want %q", c.name, v, c.want)
		}
		if v := AggregateRuns([]*Results{{}, r}).Verdict(); v == nil || v.Error() != c.want {
			t.Errorf("%s: aggregate verdict %v, want %q", c.name, v, c.want)
		}
	}
}
