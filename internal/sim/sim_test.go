package sim

import (
	"fmt"
	"testing"
)

func TestOrderingByTime(t *testing.T) {
	var s Scheduler
	var got []int
	s.At(30, func() { got = append(got, 3) })
	s.At(10, func() { got = append(got, 1) })
	s.At(20, func() { got = append(got, 2) })
	s.RunUntil(100)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("execution order = %v, want [1 2 3]", got)
	}
	if s.Now() != 100 {
		t.Errorf("Now = %d, want 100", s.Now())
	}
}

func TestFIFOWithinSameInstant(t *testing.T) {
	var s Scheduler
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(5, func() { got = append(got, i) })
	}
	s.RunUntil(5)
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant events out of scheduling order: %v", got)
		}
	}
}

func TestNowInsideEvent(t *testing.T) {
	var s Scheduler
	var at int64
	s.At(10, func() {
		s.At(s.Now()+5, func() { at = s.Now() })
	})
	s.RunUntil(100)
	if at != 15 {
		t.Errorf("event scheduled 5 ms after Now fired at %d, want 15", at)
	}
}

func TestPastEventsClamped(t *testing.T) {
	var s Scheduler
	fired := false
	s.At(10, func() {
		s.At(3, func() { fired = true }) // in the past: runs "now"
	})
	s.RunUntil(10)
	if !fired {
		t.Error("past-scheduled event did not run at the current instant")
	}
	if s.Now() != 10 {
		t.Errorf("Now = %d, want 10", s.Now())
	}
}

func TestRunUntilStopsAtDeadline(t *testing.T) {
	var s Scheduler
	ran := false
	s.At(50, func() { ran = true })
	s.RunUntil(49)
	if ran {
		t.Error("event past deadline executed")
	}
	if s.Pending() != 1 {
		t.Errorf("Pending = %d, want 1", s.Pending())
	}
	s.RunUntil(50)
	if !ran {
		t.Error("event at deadline not executed")
	}
}

func TestStepAndDrain(t *testing.T) {
	var s Scheduler
	n := 0
	s.At(1, func() { n++; s.At(2, func() { n++ }) })
	if !s.Step() {
		t.Fatal("Step returned false with pending events")
	}
	if n != 1 {
		t.Fatalf("after one step n = %d", n)
	}
	for s.Step() {
	}
	if n != 2 {
		t.Errorf("after drain n = %d, want 2", n)
	}
	if s.Step() {
		t.Error("Step on empty queue returned true")
	}
	if s.Processed() != 2 {
		t.Errorf("Processed = %d, want 2", s.Processed())
	}
}

func TestNilFnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("At(nil) did not panic")
		}
	}()
	var s Scheduler
	s.At(1, nil)
}

func TestHeavyLoadOrdering(t *testing.T) {
	var s Scheduler
	last := int64(-1)
	// Insert in a scrambled but deterministic pattern.
	for i := 0; i < 10000; i++ {
		at := int64((i * 7919) % 10007)
		s.At(at, func() {
			if at < last {
				t.Fatalf("out of order: %d after %d", at, last)
			}
			last = at
		})
	}
	s.RunUntil(20000)
	if s.Processed() != 10000 {
		t.Errorf("Processed = %d, want 10000", s.Processed())
	}
}

// TestTickEvents pins that fn-less tick events interleave with regular
// events in exact key order and dispatch the right actors.
func TestTickEvents(t *testing.T) {
	var s Scheduler
	var got []string
	s.SetTickFn(func(actor uint64) {
		got = append(got, fmt.Sprintf("tick%d@%d", actor, s.Now()))
		if actor < 3 {
			s.TickAtKey(s.Now()+10, actor, 2)
		}
	})
	s.TickAtKey(5, 2, 1)
	s.TickAtKey(5, 1, 1)
	s.AtKey(5, 3, 1, func() { got = append(got, fmt.Sprintf("fn3@%d", s.Now())) })
	s.TickAtKey(7, 9, 1)
	s.RunUntil(20)
	want := []string{"tick1@5", "tick2@5", "fn3@5", "tick9@7", "tick1@15", "tick2@15"}
	if len(got) != len(want) {
		t.Fatalf("events = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("events = %v, want %v", got, want)
		}
	}
}

// TestTickWithoutFnPanics pins the guard against arming ticks before the
// callback exists.
func TestTickWithoutFnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("TickAtKey without SetTickFn did not panic")
		}
	}()
	var s Scheduler
	s.TickAtKey(1, 1, 1)
}
