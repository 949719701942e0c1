package trace

import (
	"strings"
	"testing"

	"repro/internal/ident"
)

func ev(at int64, op Op) Event {
	return Event{At: at, Op: op, From: ident.Endpoint{IP: 1, Port: 1}, To: ident.Endpoint{IP: 2, Port: 2}, Kind: 1, Size: 62}
}

func TestNilRingIsNoOp(t *testing.T) {
	var r *Ring
	r.Record(ev(1, OpSend))
	if r.Len() != 0 || r.Total() != 0 || r.Events() != nil {
		t.Error("nil ring recorded something")
	}
}

func TestNewPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New(0)
}

func TestRecordAndOrder(t *testing.T) {
	r := New(4)
	for i := int64(1); i <= 3; i++ {
		r.Record(ev(i, OpSend))
	}
	if r.Len() != 3 || r.Total() != 3 {
		t.Fatalf("Len=%d Total=%d", r.Len(), r.Total())
	}
	es := r.Events()
	for i, e := range es {
		if e.At != int64(i+1) {
			t.Errorf("event %d at %d, want %d", i, e.At, i+1)
		}
	}
}

func TestEviction(t *testing.T) {
	r := New(3)
	for i := int64(1); i <= 5; i++ {
		r.Record(ev(i, OpDeliver))
	}
	if r.Len() != 3 || r.Total() != 5 {
		t.Fatalf("Len=%d Total=%d, want 3/5", r.Len(), r.Total())
	}
	es := r.Events()
	if es[0].At != 3 || es[2].At != 5 {
		t.Errorf("oldest-first order wrong: %v", es)
	}
}

func TestDumpAndStrings(t *testing.T) {
	r := New(2)
	r.Record(ev(1, OpSend))
	d := Format(r.Events())
	if !strings.Contains(d, "send") || !strings.Contains(d, "0.0.0.1:1") {
		t.Errorf("Format = %q", d)
	}
	for _, op := range []Op{OpSend, OpDeliver, OpDropNAT, OpDropAddr, OpDropDead, Op(99)} {
		if op.String() == "" {
			t.Errorf("Op(%d).String() empty", op)
		}
	}
}
