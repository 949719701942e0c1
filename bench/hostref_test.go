package main

import (
	"math"
	"testing"
	"time"
)

func TestHostReading(t *testing.T) {
	var from, to refTotals
	to.ns[kernelALU], to.steps[kernelALU] = 2*aluNominalNs*aluSteps, aluSteps
	to.ns[kernelSearch], to.steps[kernelSearch] = 3*searchNominalNs*searchSteps, searchSteps
	r := from.reading(to)
	if r.AluNs != 2*aluNominalNs || r.SearchNs != 3*searchNominalNs {
		t.Errorf("reading = %+v, want twice and three times nominal", r)
	}
	if want := math.Pow(2, aluWeight) * math.Pow(3, searchWeight); math.Abs(r.Factor-want) > 1e-12 {
		t.Errorf("factor = %v, want %v", r.Factor, want)
	}
	// A later section sees only its own slices.
	later := to
	later.ns[kernelALU] += aluNominalNs * aluSteps
	later.steps[kernelALU] += aluSteps
	later.ns[kernelSearch] += searchNominalNs * searchSteps
	later.steps[kernelSearch] += searchSteps
	if f := to.reading(later).Factor; math.Abs(f-1) > 1e-12 {
		t.Errorf("factor at nominal = %v, want 1", f)
	}
}

func TestUsageAddKeepsReferenceTimeAdditive(t *testing.T) {
	a := usage{Wall: 2 * time.Second, CPU: time.Second, Host: 2}
	b := usage{Wall: 3 * time.Second, CPU: time.Second, Host: 1}
	sum := a.add(b)
	if got, want := sum.ref(sum.Wall), a.ref(a.Wall)+b.ref(b.Wall); math.Abs(got-want) > 1e-12 {
		t.Errorf("reference wall of the sum = %v, want %v", got, want)
	}
}

func TestHostPollKeepsItsInterval(t *testing.T) {
	h, err := newHostRef()
	if err != nil {
		t.Fatal(err)
	}
	h.poll() // the first poll always takes a slice
	after := h.snapshot()
	h.poll()
	if h.snapshot() != after {
		t.Error("a poll right after a slice took another one")
	}
	h.bracket()
	got := h.snapshot()
	for k := 0; k < kernels; k++ {
		if got.steps[k] <= after.steps[k] {
			t.Errorf("bracket took no slice of kernel %d", k)
		}
	}
	if got.spent <= after.spent {
		t.Error("bracket cost no time")
	}
}
