package simnet

import (
	"reflect"
	"testing"

	"repro/internal/ident"
	"repro/internal/trace"
	"repro/internal/wire"
)

// TestDropStatFields pins the reflection contract of Drops(): every entry
// of the trace.DropCauses taxonomy table names a real uint64 DropStats
// field, no two causes share a field, and no DropStats field is left
// uncovered. Drops() sets the fields by name, so a rename on either side
// must fail here rather than panic at runtime.
func TestDropStatFields(t *testing.T) {
	typ := reflect.TypeOf(DropStats{})
	seen := make(map[string]bool)
	for _, info := range trace.DropCauses {
		f, ok := typ.FieldByName(info.StatField)
		if !ok {
			t.Fatalf("DropCauses[%s]: DropStats has no field %q", info.OpName, info.StatField)
		}
		if f.Type.Kind() != reflect.Uint64 {
			t.Fatalf("DropStats.%s is %v, want uint64", info.StatField, f.Type)
		}
		if seen[info.StatField] {
			t.Fatalf("DropStats.%s claimed by two drop causes", info.StatField)
		}
		seen[info.StatField] = true
	}
	if typ.NumField() != int(trace.NumDropCauses) {
		t.Fatalf("DropStats has %d fields but the taxonomy declares %d causes — a field is untracked",
			typ.NumField(), trace.NumDropCauses)
	}
}

// TestTraceDisabledZeroAlloc locks in that the tracing hook costs nothing
// when no recorder is installed: the hot delivery path calls sh.trace on
// every datagram, and with a nil ring the call must allocate nothing (and
// touch nothing beyond the nil check). This is what lets tracing stay
// compiled into the 1k-peer benchmark path without moving its guards.
func TestTraceDisabledZeroAlloc(t *testing.T) {
	sh := &netShard{} // tr == nil: the disabled configuration
	msg := new(wire.Message)
	from := ident.Endpoint{IP: 1, Port: 1}
	to := ident.Endpoint{IP: 2, Port: 2}
	allocs := testing.AllocsPerRun(1000, func() {
		sh.trace(trace.OpSend, from, to, msg, 62)
		sh.trace(trace.OpDeliver, from, to, msg, 62)
	})
	if allocs != 0 {
		t.Fatalf("disabled trace hook allocates %.1f times per event, want 0", allocs)
	}
}
