package metrics

import (
	"fmt"
	"testing"
)

func TestUsageMeterZeroDurationWindow(t *testing.T) {
	u := NewUsageMeter()
	u.AddBusy("sim", 500)
	if got := u.Utilization(0, 4); got != 0 {
		t.Errorf("Utilization over zero elapsed = %v, want 0", got)
	}
	if got := u.Utilization(-100, 4); got != 0 {
		t.Errorf("Utilization over negative elapsed = %v, want 0", got)
	}
	if got := u.ClassUtilization("sim", 0, 4); got != 0 {
		t.Errorf("ClassUtilization over zero elapsed = %v, want 0", got)
	}
	if got := u.Utilization(1000, 0); got != 0 {
		t.Errorf("Utilization with zero units = %v, want 0", got)
	}
	if got := u.ClassUtilization("sim", 1000, -1); got != 0 {
		t.Errorf("ClassUtilization with negative units = %v, want 0", got)
	}
}

func TestUsageMeterNegativeBusyIgnored(t *testing.T) {
	u := NewUsageMeter()
	u.AddBusy("sim", -1)
	if got := u.Busy("sim"); got != 0 {
		t.Errorf("Busy after negative AddBusy = %d, want 0", got)
	}
	if got := u.TotalBusy(); got != 0 {
		t.Errorf("TotalBusy after negative AddBusy = %d, want 0", got)
	}
	// A negative charge must not even register the class.
	u.AddBusy("sim", 10)
	u.AddBusy("sim", -10)
	if got := u.Busy("sim"); got != 10 {
		t.Errorf("Busy = %d, want 10 (negative charge ignored)", got)
	}
}

func TestUsageMeterClassSliceGrowth(t *testing.T) {
	u := NewUsageMeter()
	const classes = 40
	for round := 0; round < 3; round++ {
		for i := 0; i < classes; i++ {
			u.AddBusy(fmt.Sprintf("class-%02d", i), int64(i+1))
		}
	}
	var wantTotal int64
	for i := 0; i < classes; i++ {
		want := int64(3 * (i + 1))
		wantTotal += want
		if got := u.Busy(fmt.Sprintf("class-%02d", i)); got != want {
			t.Fatalf("Busy(class-%02d) = %d, want %d", i, got, want)
		}
	}
	if got := u.TotalBusy(); got != wantTotal {
		t.Errorf("TotalBusy = %d, want %d", got, wantTotal)
	}
	if got := u.Busy("never-seen"); got != 0 {
		t.Errorf("Busy of unknown class = %d, want 0", got)
	}
}

func TestUsageMeterUtilizationArithmetic(t *testing.T) {
	u := NewUsageMeter()
	u.AddBusy("sim", 250)
	u.AddBusy("real", 250)
	// 500 busy ns over 1000 elapsed ns on one unit = 50%.
	if got := u.Utilization(1000, 1); got != 50 {
		t.Errorf("Utilization = %v, want 50", got)
	}
	// The same busy time across two units halves the utilization.
	if got := u.Utilization(1000, 2); got != 25 {
		t.Errorf("Utilization(2 units) = %v, want 25", got)
	}
	if got := u.ClassUtilization("sim", 1000, 1); got != 25 {
		t.Errorf("ClassUtilization(sim) = %v, want 25", got)
	}
}

func TestByteMeterNegativeAdd(t *testing.T) {
	var b ByteMeter
	b.Add(-5)
	if got := b.Bytes(); got != 0 {
		t.Errorf("Bytes after negative Add = %d, want 0", got)
	}
	b.Add(2048)
	b.Add(-1)
	if got := b.Bytes(); got != 2048 {
		t.Errorf("Bytes = %d, want 2048", got)
	}
}
