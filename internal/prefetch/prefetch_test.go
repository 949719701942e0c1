package prefetch

import "testing"

// TestLineNeverWritesOrAllocates hints every element of a buffer and a nil
// pointer: no hint may fault, change what it points at or allocate.
func TestLineNeverWritesOrAllocates(t *testing.T) {
	buf := make([]uint64, 64)
	for i := range buf {
		buf[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	want := append([]uint64(nil), buf...)
	var nilp *uint64
	allocs := testing.AllocsPerRun(100, func() {
		for i := range buf {
			Line(&buf[i])
		}
		Line(nilp)
	})
	if allocs != 0 {
		t.Errorf("Line allocates %.1f per run, want 0", allocs)
	}
	for i := range buf {
		if buf[i] != want[i] {
			t.Fatalf("buf[%d] = %#x after hints, want %#x", i, buf[i], want[i])
		}
	}
}
