package metrics

// UsageMeter integrates busy time of a resource (CPU, disk, link) over
// simulated time so utilization can be reported exactly, not sampled.
// The paper's Figure 6 reports average usage of CPUs and disk bandwidth; we
// accumulate busy nanoseconds and divide by elapsed nanoseconds per class of
// work ("simulated" transaction processing versus "real" protocol jobs).
// The handful of work classes live in a small slice rather than a map: the
// per-job AddBusy on the simulation hot path is then a short linear scan
// whose string compares hit the pointer-equality fast path (classes are
// interned constants), with no hashing.
type UsageMeter struct {
	classes []classBusy
}

type classBusy struct {
	class string
	ns    int64
}

// NewUsageMeter returns an empty meter.
func NewUsageMeter() *UsageMeter {
	return &UsageMeter{}
}

// AddBusy accrues busy nanoseconds attributed to a class of work.
func (u *UsageMeter) AddBusy(class string, ns int64) {
	if ns < 0 {
		return
	}
	for i := range u.classes {
		if u.classes[i].class == class {
			u.classes[i].ns += ns
			return
		}
	}
	u.classes = append(u.classes, classBusy{class: class, ns: ns})
}

// Busy reports accumulated busy nanoseconds for one class.
func (u *UsageMeter) Busy(class string) int64 {
	for i := range u.classes {
		if u.classes[i].class == class {
			return u.classes[i].ns
		}
	}
	return 0
}

// TotalBusy reports accumulated busy nanoseconds over all classes.
func (u *UsageMeter) TotalBusy() int64 {
	var t int64
	for _, c := range u.classes {
		t += c.ns
	}
	return t
}

// Utilization reports total busy time as a percentage of elapsed time
// multiplied by capacity units (e.g. number of CPUs).
func (u *UsageMeter) Utilization(elapsedNS int64, units int) float64 {
	if elapsedNS <= 0 || units <= 0 {
		return 0
	}
	return 100 * float64(u.TotalBusy()) / (float64(elapsedNS) * float64(units))
}

// ClassUtilization reports busy time of one class as a percentage of elapsed
// time multiplied by capacity units.
func (u *UsageMeter) ClassUtilization(class string, elapsedNS int64, units int) float64 {
	if elapsedNS <= 0 || units <= 0 {
		return 0
	}
	return 100 * float64(u.Busy(class)) / (float64(elapsedNS) * float64(units))
}

// ByteMeter counts bytes moved on a resource (network link, disk) so that
// sustained bandwidth can be reported.
type ByteMeter struct {
	bytes int64
}

// Add accrues n bytes.
func (b *ByteMeter) Add(n int) {
	if n > 0 {
		b.bytes += int64(n)
	}
}

// Bytes reports the total.
func (b *ByteMeter) Bytes() int64 { return b.bytes }
