package traversal

import (
	"testing"

	"repro/internal/ident"
)

// TestDecisionMatrix reproduces, cell by cell, the traversal table of Section
// 2.2 of the paper (experiment T1 in DESIGN.md):
//
//	        public  RC             PRC            SYM
//	public  direct  hole punching  hole punching  relay
//	RC      direct  hole punching  hole punching  hole punching
//	PRC     direct  hole punching  hole punching  relaying
//	SYM     direct  mod. hole p.   relaying       relaying
func TestDecisionMatrix(t *testing.T) {
	classes := []ident.NATClass{ident.Public, ident.RestrictedCone, ident.PortRestrictedCone, ident.Symmetric}
	want := [4][4]Method{
		{Direct, HolePunch, HolePunch, Relay},
		{Direct, HolePunch, HolePunch, HolePunch},
		{Direct, HolePunch, HolePunch, Relay},
		{Direct, HolePunchModified, Relay, Relay},
	}
	for i, src := range classes {
		for j, dst := range classes {
			if got := Decide(src, dst); got != want[i][j] {
				t.Errorf("Decide(%v, %v) = %v, want %v", src, dst, got, want[i][j])
			}
		}
	}
}

// TestFullConeNormalization checks that FC endpoints are treated as public on
// both sides, per §2.2 of the paper.
func TestFullConeNormalization(t *testing.T) {
	for _, c := range []ident.NATClass{ident.Public, ident.FullCone, ident.RestrictedCone, ident.PortRestrictedCone, ident.Symmetric} {
		if got := Decide(c, ident.FullCone); got != Direct {
			t.Errorf("Decide(%v, FullCone) = %v, want Direct", c, got)
		}
		if got, want := Decide(ident.FullCone, c), Decide(ident.Public, c); got != want {
			t.Errorf("Decide(FullCone, %v) = %v, want %v (same as public source)", c, got, want)
		}
	}
}

func TestMethodString(t *testing.T) {
	tests := []struct {
		m    Method
		want string
	}{
		{Direct, "direct"},
		{HolePunch, "hole-punching"},
		{HolePunchModified, "modified-hole-punching"},
		{Relay, "relaying"},
		{Method(42), "method(42)"},
	}
	for _, tt := range tests {
		if got := tt.m.String(); got != tt.want {
			t.Errorf("Method(%d).String() = %q, want %q", tt.m, got, tt.want)
		}
	}
}

func TestDecideUnknownClassIsConservative(t *testing.T) {
	if got := Decide(ident.Public, ident.NATClass(200)); got != Relay {
		t.Errorf("Decide(Public, unknown) = %v, want Relay", got)
	}
}
