package rt

import (
	"math/rand"
	"testing"

	"repro/internal/ident"
	"repro/internal/intern"
	"repro/internal/view"
)

// refTable is a map-backed reference implementation of the Set/Next/Purge
// semantics, used to cross-check the open-addressed index under heavy
// insert/expire churn.
type refTable struct {
	self    ident.NodeID
	entries map[ident.NodeID]Entry
}

func (r *refTable) set(dest ident.NodeID, rvp view.Descriptor, expireAt int64) {
	if dest == r.self || dest.IsNil() || rvp.ID.IsNil() {
		return
	}
	if cur, ok := r.entries[dest]; ok {
		if cur.ExpireAt > expireAt && !(rvp.ID == dest && cur.RVP.ID != dest) {
			return
		}
	}
	r.entries[dest] = Entry{RVP: rvp, ExpireAt: expireAt}
}

func (r *refTable) next(dest ident.NodeID, now int64) (view.Descriptor, bool) {
	e, ok := r.entries[dest]
	if !ok {
		return view.Descriptor{}, false
	}
	if e.ExpireAt < now {
		delete(r.entries, dest)
		return view.Descriptor{}, false
	}
	return e.RVP, true
}

func (r *refTable) purge(now int64) {
	for dest, e := range r.entries {
		if e.ExpireAt < now {
			delete(r.entries, dest)
		}
	}
}

// TestIndexMatchesReference drives a long random workload of installs,
// lookups, refreshes and purges through the table and the reference and
// requires identical observable behaviour throughout.
func TestIndexMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tb := NewShared(1, &intern.Descriptors{})
	ref := &refTable{self: 1, entries: map[ident.NodeID]Entry{}}
	rvpFor := func(id uint64) view.Descriptor {
		return view.Descriptor{ID: ident.NodeID(id), Addr: ident.Endpoint{IP: ident.IP(id)}}
	}
	now := int64(0)
	for step := 0; step < 200_000; step++ {
		switch op := rng.Intn(10); {
		case op < 5: // install/refresh a route
			dest := ident.NodeID(rng.Intn(400))
			rvp := rvpFor(uint64(rng.Intn(400)))
			exp := now + int64(rng.Intn(2000)-200)
			tb.Set(dest, rvp, exp)
			ref.set(dest, rvp, exp)
		case op < 8: // lookup
			dest := ident.NodeID(rng.Intn(400))
			gotRVP, gotOK := tb.Next(dest, now)
			wantRVP, wantOK := ref.next(dest, now)
			if gotOK != wantOK || gotRVP != wantRVP {
				t.Fatalf("step %d: Next(%v) = %v,%v; want %v,%v", step, dest, gotRVP, gotOK, wantRVP, wantOK)
			}
		case op < 9: // purge
			tb.Purge(now)
			ref.purge(now)
			if tb.Len() != len(ref.entries) {
				t.Fatalf("step %d: Len = %d, want %d", step, tb.Len(), len(ref.entries))
			}
		default: // time advances
			now += int64(rng.Intn(300))
		}
		if step%10_000 == 0 {
			// Deep check: every reference entry is found with the right
			// expiry, and the sizes agree.
			tb.Purge(now)
			ref.purge(now)
			if tb.Len() != len(ref.entries) {
				t.Fatalf("step %d: Len = %d, want %d", step, tb.Len(), len(ref.entries))
			}
			for dest, e := range ref.entries {
				got, ok := tb.Get(dest, now)
				if !ok || got != e {
					t.Fatalf("step %d: Get(%v) = %+v,%v; want %+v", step, dest, got, ok, e)
				}
			}
		}
	}
}

// TestSetSteadyStateAllocs locks in that refreshing existing routes and
// purging allocate nothing.
func TestSetSteadyStateAllocs(t *testing.T) {
	tb := NewShared(1, &intern.Descriptors{})
	rvp := view.Descriptor{ID: 7, Addr: ident.Endpoint{IP: 7}}
	for id := uint64(2); id < 200; id++ {
		tb.Set(ident.NodeID(id), rvp, 1000)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		for id := uint64(2); id < 200; id++ {
			tb.Set(ident.NodeID(id), rvp, 2000)
		}
		tb.Purge(500)
	})
	if allocs != 0 {
		t.Errorf("steady-state Set/Purge allocates %.1f times, want 0", allocs)
	}
}

// TestIndexAdversarialIDs fills a table with destination IDs crafted to share
// an index home slot (IDs differing only in bits the Fibonacci fingerprint
// maps to the same cell for small tables), then churns them through
// expire/reinstall cycles: long probe chains and backward-shift deletion in
// clustered clusters must stay exact.
func TestIndexAdversarialIDs(t *testing.T) {
	tb := NewShared(1, &intern.Descriptors{})
	ref := &refTable{self: 1, entries: map[ident.NodeID]Entry{}}
	// Brute-force IDs whose fingerprints land in one home slot of the
	// initial table.
	var ids []ident.NodeID
	mask := initialSlots - 1
	for id := uint64(2); len(ids) < 120; id++ {
		if int(fpOf(ident.NodeID(id)))&mask == 0 {
			ids = append(ids, ident.NodeID(id))
		}
	}
	rvp := view.Descriptor{ID: 9999, Addr: ident.Endpoint{IP: 1, Port: 1}}
	rng := rand.New(rand.NewSource(3))
	now := int64(0)
	for round := 0; round < 300; round++ {
		for _, id := range ids {
			if rng.Intn(3) > 0 {
				exp := now + int64(rng.Intn(500))
				tb.Set(id, rvp, exp)
				ref.set(id, rvp, exp)
			}
		}
		now += int64(rng.Intn(400))
		tb.Purge(now)
		ref.purge(now)
		if tb.Len() != len(ref.entries) {
			t.Fatalf("round %d: Len = %d, want %d", round, tb.Len(), len(ref.entries))
		}
		for _, id := range ids {
			got, gok := tb.Get(id, now)
			want, wok := ref.entries[id]
			if wok && want.ExpireAt < now {
				wok = false
			}
			if gok != wok || (gok && got.RVP != want.RVP) {
				t.Fatalf("round %d: Get(%v) = %+v,%v; want %+v,%v", round, id, got, gok, want, wok)
			}
		}
	}
}
