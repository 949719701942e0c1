package trace

import (
	"fmt"

	"repro/internal/ident"
)

// Causal stamps. The simulated network stamps every datagram at send time:
// a message leaving its origin (hop 0) gets a fresh (origin, OriginSeq)
// chain identity and a PathRoot hash; every relay folds its own id into the
// hash with PathExtend. The stamp travels in in-memory message fields (not
// on the wire — see internal/wire), so a delivered or dropped datagram's
// event names both the chain it belongs to and the exact relay path it
// took, and Follow can reassemble the chain from a merged trace.

// PathRoot hashes a chain identity into the initial path value.
func PathRoot(origin ident.NodeID, seq uint32) uint64 {
	return mix(mix(0x9e3779b97f4a7c15, uint64(origin)), uint64(seq))
}

// PathExtend folds one relay hop into a path hash.
func PathExtend(path uint64, relay ident.NodeID) uint64 {
	return mix(path, uint64(relay))
}

// mix is splitmix64's finalizer over h^v — cheap, deterministic, and
// platform-independent.
func mix(h, v uint64) uint64 {
	z := h ^ v
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// ChainID names one causal forwarding chain: all transmissions descended
// from one origin send.
type ChainID struct {
	Origin ident.NodeID `json:"origin"`
	Seq    uint32       `json:"seq"`
}

// String implements fmt.Stringer.
func (c ChainID) String() string { return fmt.Sprintf("%v:%d", c.Origin, c.Seq) }

// Chain returns the event's chain identity.
func (e Event) Chain() ChainID { return ChainID{Origin: e.Src, Seq: e.OriginSeq} }

// Chains groups a merged trace by chain identity, preserving event order
// within each chain and returning chain ids in first-appearance order.
func Chains(events []Event) ([]ChainID, map[ChainID][]Event) {
	var order []ChainID
	byID := make(map[ChainID][]Event)
	for _, e := range events {
		id := e.Chain()
		if _, ok := byID[id]; !ok {
			order = append(order, id)
		}
		byID[id] = append(byID[id], e)
	}
	return order, byID
}

// VerifyChain checks a chain's internal consistency: events must be in
// global key order, hop indices must never decrease, and a surviving head
// (the origin's hop-0 send) must carry exactly the PathRoot hash of its
// chain identity. The chain may be truncated (ring eviction can lose the
// head); headSurvived reports whether the true head is still present.
func VerifyChain(chain []Event) (headSurvived bool, err error) {
	if len(chain) == 0 {
		return false, fmt.Errorf("trace: empty chain")
	}
	id := chain[0].Chain()
	headSurvived = chain[0].Op == OpSend && chain[0].Hop == 0
	if headSurvived && chain[0].Path != PathRoot(id.Origin, id.Seq) {
		return headSurvived, fmt.Errorf("trace: chain %v: head path %#x != root %#x",
			id, chain[0].Path, PathRoot(id.Origin, id.Seq))
	}
	lastHop := -1
	for i := range chain {
		e := &chain[i]
		if e.Chain() != id {
			return headSurvived, fmt.Errorf("trace: chain %v: event %d belongs to %v", id, i, e.Chain())
		}
		if int(e.Hop) < lastHop {
			return headSurvived, fmt.Errorf("trace: chain %v: hop %d after hop %d", id, e.Hop, lastHop)
		}
		lastHop = int(e.Hop)
		if i > 0 {
			if compareKey(*e, chain[i-1]) < 0 {
				return headSurvived, fmt.Errorf("trace: chain %v: event %d out of order", id, i)
			}
		}
	}
	return headSurvived, nil
}
