package metrics

import "testing"

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
