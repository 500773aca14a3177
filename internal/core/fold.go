package core

import (
	"fmt"
	"reflect"
)

// fold merges one layer's Stats value into an accumulator of the same type,
// driven by the struct definition: every field is an integer counter and
// sums, except a field tagged `fold:"max"` — a peak gauge — which keeps the
// larger value. It serves replica.Stats and gcs.Stats alike, for run totals
// and for preserving a dead incarnation's counters across a crash-and-rejoin
// rebuild, so a counter added to either struct reaches Results with no
// further line anywhere. A field of any other kind, or any other fold tag,
// panics: a counter must never merge by a rule nobody chose.
func fold[T any](dst *T, src T) {
	d, s := reflect.ValueOf(dst).Elem(), reflect.ValueOf(src)
	for i := 0; i < d.NumField(); i++ {
		f := d.Type().Field(i)
		if !d.Field(i).CanInt() {
			panic(fmt.Sprintf("core: fold: %s.%s is a %s, not an integer counter", d.Type(), f.Name, f.Type))
		}
		v := s.Field(i).Int()
		switch tag := f.Tag.Get("fold"); tag {
		case "":
			d.Field(i).SetInt(d.Field(i).Int() + v)
		case "max":
			if v > d.Field(i).Int() {
				d.Field(i).SetInt(v)
			}
		default:
			panic(fmt.Sprintf("core: fold: %s.%s has unknown fold tag %q", d.Type(), f.Name, tag))
		}
	}
}
