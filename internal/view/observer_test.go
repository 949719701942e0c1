package view

import (
	"math/rand"
	"testing"

	"repro/internal/ident"
)

// tallyObserver records the net membership per peer ID plus hook call counts.
type tallyObserver struct {
	owner         ident.NodeID
	present       map[ident.NodeID]int
	adds, removes int
	ownerMismatch bool
}

func newTally(owner ident.NodeID) *tallyObserver {
	return &tallyObserver{owner: owner, present: map[ident.NodeID]int{}}
}

func (o *tallyObserver) ViewEntryAdded(owner ident.NodeID, d Descriptor) {
	if owner != o.owner {
		o.ownerMismatch = true
	}
	o.present[d.ID]++
	o.adds++
}

func (o *tallyObserver) ViewEntryRemoved(owner ident.NodeID, d Descriptor) {
	if owner != o.owner {
		o.ownerMismatch = true
	}
	o.present[d.ID]--
	o.removes++
}

// check asserts the observer's net tallies mirror the view exactly: every
// entry present once, everything else at zero.
func (o *tallyObserver) check(t *testing.T, v *View) {
	t.Helper()
	if o.ownerMismatch {
		t.Fatal("hook fired with the wrong owner ID")
	}
	want := map[ident.NodeID]int{}
	for i := 0; i < v.Len(); i++ {
		want[v.At(i).ID] = 1
	}
	for id, n := range o.present {
		if n != want[id] {
			t.Fatalf("observer tally for peer %v = %d, want %d (view %v)", id, n, want[id], v)
		}
		delete(want, id)
	}
	for id := range want {
		t.Fatalf("observer never saw peer %v, which is in the view", id)
	}
}

func TestObserverAddRemove(t *testing.T) {
	v := New(1, 3)
	o := newTally(1)
	v.SetObserver(o)

	v.Add(desc(2, 0))
	v.Add(desc(3, 0))
	v.Add(desc(2, 5)) // duplicate: rejected, no hook
	v.Add(desc(1, 0)) // self: rejected, no hook
	if o.adds != 2 {
		t.Fatalf("adds = %d after 2 accepted Adds, want 2", o.adds)
	}
	v.Remove(3)
	v.Remove(3) // already gone: no hook
	if o.removes != 1 {
		t.Fatalf("removes = %d after 1 effective Remove, want 1", o.removes)
	}
	o.check(t, v)
}

func TestObserverApplyExchange(t *testing.T) {
	v := New(1, 2)
	o := newTally(1)
	v.SetObserver(o)
	v.Add(desc(2, 5))
	v.Add(desc(3, 1))
	rng := rand.New(rand.NewSource(1))
	// Union {2(5), 3(1), 4(0), 5(9)} truncates to 2: hooks must report the
	// dropped originals as removed and the surviving newcomers as added.
	v.ApplyExchange(MergeHealer, []Descriptor{desc(4, 0), desc(5, 9)}, nil, rng)
	o.check(t, v)
	if o.adds < 2 {
		t.Fatalf("adds = %d, want at least the 2 initial entries", o.adds)
	}
}

// TestObserverRandomizedExchanges drives two observed views through many
// random exchanges and checks the tallies still mirror the views after each
// merge — the property the incremental health accumulators depend on.
func TestObserverRandomizedExchanges(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		a, b := New(1, 4), New(2, 4)
		oa, ob := newTally(1), newTally(2)
		a.SetObserver(oa)
		b.SetObserver(ob)
		for id := uint64(3); id < 9; id++ {
			a.Add(desc(id, uint32(rng.Intn(10))))
			b.Add(desc(id+6, uint32(rng.Intn(10))))
		}
		for step := 0; step < 20; step++ {
			policy := MergeHealer
			if step%2 == 1 {
				policy = MergeSwapper
			}
			sent := a.PrepareExchangeInto(policy, rng, nil)
			reply := b.PrepareExchangeInto(policy, rng, nil)
			a.ApplyExchange(policy, reply, sent, rng)
			b.ApplyExchange(policy, sent, reply, rng)
			oa.check(t, a)
			ob.check(t, b)
		}
	}
}

// TestObserverDedupNoHooks pins the duplicate-resolution rule: replacing a
// descriptor for an ID already in the view (younger age, new address) is not
// a membership change and must not fire hooks for it.
func TestObserverDedupNoHooks(t *testing.T) {
	v := New(1, 4)
	v.Add(desc(2, 9))
	o := newTally(1)
	v.SetObserver(o)
	o.present[2] = 1 // seed the tally with the pre-observer entry
	rng := rand.New(rand.NewSource(1))
	fresh := desc(2, 1)
	fresh.Addr = ident.Endpoint{IP: 99, Port: 99}
	v.ApplyExchange(MergeHealer, []Descriptor{fresh}, nil, rng)
	if o.adds != 0 || o.removes != 0 {
		t.Fatalf("dedup fired hooks: %d adds, %d removes, want 0/0", o.adds, o.removes)
	}
	o.check(t, v)
}
