package view

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/ident"
)

// The reference implementations below are verbatim copies of the pre-scratch
// exchange code (index-sort moveOldestToEnd, splice-based ApplyExchange).
// The equivalence tests drive the optimized code and the reference with
// identical inputs and RNG seeds and require bit-identical resulting views
// and identical RNG consumption, locking in that the zero-allocation rewrite
// changed nothing observable.

func refMoveOldestToEnd(ds []Descriptor, h int) {
	if h <= 0 || len(ds) <= 1 {
		return
	}
	if h > len(ds) {
		h = len(ds)
	}
	idx := make([]int, len(ds))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return ds[idx[a]].Age > ds[idx[b]].Age })
	oldest := make(map[int]bool, h)
	for _, i := range idx[:h] {
		oldest[i] = true
	}
	rest := make([]Descriptor, 0, len(ds))
	tail := make([]Descriptor, 0, h)
	for i, d := range ds {
		if oldest[i] {
			tail = append(tail, d)
		} else {
			rest = append(rest, d)
		}
	}
	copy(ds, append(rest, tail...))
}

func indexIn(ds []Descriptor, id ident.NodeID) int {
	for i, d := range ds {
		if d.ID == id {
			return i
		}
	}
	return -1
}

func refPrepareExchange(v *View, policy Merge, rng *rand.Rand) []Descriptor {
	h, _ := policy.HS(v.maxSize)
	rng.Shuffle(len(v.entries), func(i, j int) { v.entries[i], v.entries[j] = v.entries[j], v.entries[i] })
	refMoveOldestToEnd(v.entries, h)
	sent := make([]Descriptor, v.ExchangeLen())
	copy(sent, v.entries)
	return sent
}

func refApplyExchange(v *View, policy Merge, received, sent []Descriptor, rng *rand.Rand) {
	union := make([]Descriptor, 0, len(v.entries)+len(received))
	union = append(union, v.entries...)
	for _, d := range received {
		if d.ID == v.self || d.ID.IsNil() {
			continue
		}
		if i := indexIn(union, d.ID); i >= 0 {
			if d.Age < union[i].Age {
				union[i] = d
			}
			continue
		}
		union = append(union, d)
	}
	c := v.maxSize
	h, s := policy.HS(c)
	for drop := min(h, len(union)-c); drop > 0; drop-- {
		oldest := 0
		for i := 1; i < len(union); i++ {
			if union[i].Age > union[oldest].Age {
				oldest = i
			}
		}
		union = append(union[:oldest], union[oldest+1:]...)
	}
	if drop := min(s, len(union)-c); drop > 0 {
		for _, d := range sent {
			if drop == 0 {
				break
			}
			if i := indexIn(union, d.ID); i >= 0 {
				union = append(union[:i], union[i+1:]...)
				drop--
			}
		}
	}
	for len(union) > c {
		i := rng.Intn(len(union))
		union = append(union[:i], union[i+1:]...)
	}
	v.entries = union
}

// sameDescs compares two descriptor slices elementwise, treating nil and
// empty as equal.
func sameDescs(a, b []Descriptor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// buildView constructs a view of the given size holding one descriptor per
// (id, age) pair, skipping invalid ones.
func buildView(maxSize int, ids []uint16, ageMod uint32) *View {
	v := New(1, maxSize)
	for _, id := range ids {
		v.Add(desc(uint64(id), uint32(id)%ageMod))
	}
	return v
}

// TestExchangeEquivalence drives a full shuffle round (PrepareExchange then
// ApplyExchange) through the optimized and the reference implementations with
// identical seeds, for every merge policy, and requires identical view
// contents, identical shipped buffers, and identical RNG positions.
func TestExchangeEquivalence(t *testing.T) {
	f := func(ownIDs, recvIDs []uint16, policyRaw uint8, maxSizeRaw uint8, seed int64) bool {
		policy := Merge(policyRaw % 3)
		maxSize := int(maxSizeRaw%30) + 1
		vNew := buildView(maxSize, ownIDs, 13)
		vRef := buildView(maxSize, ownIDs, 13)

		var recv []Descriptor
		for _, id := range recvIDs {
			recv = append(recv, desc(uint64(id), uint32(id)%7))
		}

		rngNew := rand.New(rand.NewSource(seed))
		rngRef := rand.New(rand.NewSource(seed))

		sentNew := vNew.PrepareExchangeInto(policy, rngNew, nil)
		sentRef := refPrepareExchange(vRef, policy, rngRef)
		if !sameDescs(sentNew, sentRef) {
			t.Logf("sent mismatch: %v vs %v", sentNew, sentRef)
			return false
		}
		vNew.ApplyExchange(policy, recv, sentNew, rngNew)
		refApplyExchange(vRef, policy, recv, sentRef, rngRef)
		if !sameDescs(vNew.Entries(), vRef.Entries()) {
			t.Logf("view mismatch:\n new %v\n ref %v", vNew, vRef)
			return false
		}
		// Identical RNG position: the next draw must agree.
		return rngNew.Uint64() == rngRef.Uint64()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestExchangeEquivalenceSteadyState runs many consecutive exchanges on one
// long-lived view (the scratch-reuse case) against the reference on a twin
// view, checking equality after every round.
func TestExchangeEquivalenceSteadyState(t *testing.T) {
	for _, policy := range []Merge{MergeBlind, MergeHealer, MergeSwapper} {
		vNew := buildView(15, []uint16{2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, 11)
		vRef := buildView(15, []uint16{2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, 11)
		rngNew := rand.New(rand.NewSource(99))
		rngRef := rand.New(rand.NewSource(99))
		recvRNG := rand.New(rand.NewSource(7))
		var sentBuf []Descriptor
		for round := 0; round < 200; round++ {
			recv := make([]Descriptor, recvRNG.Intn(8))
			for i := range recv {
				recv[i] = desc(uint64(recvRNG.Intn(40)+2), uint32(recvRNG.Intn(20)))
			}
			sentBuf = vNew.PrepareExchangeInto(policy, rngNew, sentBuf[:0])
			sentRef := refPrepareExchange(vRef, policy, rngRef)
			if !sameDescs(sentBuf, sentRef) {
				t.Fatalf("%v round %d: sent mismatch", policy, round)
			}
			vNew.ApplyExchange(policy, recv, sentBuf, rngNew)
			refApplyExchange(vRef, policy, recv, sentRef, rngRef)
			if !sameDescs(vNew.Entries(), vRef.Entries()) {
				t.Fatalf("%v round %d:\n new %v\n ref %v", policy, round, vNew, vRef)
			}
			vNew.IncreaseAge()
			vRef.IncreaseAge()
		}
	}
}

// TestExchangeZeroAllocs locks in the tentpole: a steady-state shuffle round
// (PrepareExchangeInto with a reused buffer + ApplyExchange) allocates
// nothing.
func TestExchangeZeroAllocs(t *testing.T) {
	for _, policy := range []Merge{MergeBlind, MergeHealer, MergeSwapper} {
		v := buildView(15, []uint16{2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, 11)
		rng := rand.New(rand.NewSource(1))
		recv := make([]Descriptor, 8)
		for i := range recv {
			recv[i] = desc(uint64(100+i), uint32(i))
		}
		var sent []Descriptor
		// Warm the scratch buffers once; steady state begins afterwards.
		sent = v.PrepareExchangeInto(policy, rng, sent[:0])
		v.ApplyExchange(policy, recv, sent, rng)
		allocs := testing.AllocsPerRun(100, func() {
			sent = v.PrepareExchangeInto(policy, rng, sent[:0])
			v.ApplyExchange(policy, recv, sent, rng)
			v.IncreaseAge()
		})
		if allocs != 0 {
			t.Errorf("%v: exchange round allocates %.1f times, want 0", policy, allocs)
		}
	}
}

// TestSharedScratchEquivalence interleaves exchanges of many views sharing
// one Scratch (the per-shard layout of the simulator) against twin views with
// private scratch, requiring bit-identical contents and RNG positions: the
// scratch is pure working storage, never carried state.
func TestSharedScratchEquivalence(t *testing.T) {
	const nViews = 16
	var sc Scratch
	shared := make([]*View, nViews)
	private := make([]*View, nViews)
	rngS := make([]*rand.Rand, nViews)
	rngP := make([]*rand.Rand, nViews)
	for i := range shared {
		shared[i] = NewShared(1, 15, &sc)
		private[i] = New(1, 15)
		for id := 2; id < 18; id++ {
			d := desc(uint64(id+i), uint32((id*7+i)%11))
			shared[i].Add(d)
			private[i].Add(d)
		}
		rngS[i] = rand.New(rand.NewSource(int64(i + 1)))
		rngP[i] = rand.New(rand.NewSource(int64(i + 1)))
	}
	order := rand.New(rand.NewSource(42))
	recvRNG := rand.New(rand.NewSource(7))
	var sentS, sentP []Descriptor
	for step := 0; step < 2000; step++ {
		i := order.Intn(nViews)
		policy := Merge(order.Intn(3))
		recv := make([]Descriptor, recvRNG.Intn(8))
		for k := range recv {
			recv[k] = desc(uint64(recvRNG.Intn(60)+2), uint32(recvRNG.Intn(20)))
		}
		sentS = shared[i].PrepareExchangeInto(policy, rngS[i], sentS[:0])
		sentP = private[i].PrepareExchangeInto(policy, rngP[i], sentP[:0])
		if !sameDescs(sentS, sentP) {
			t.Fatalf("step %d view %d: sent mismatch", step, i)
		}
		shared[i].ApplyExchange(policy, recv, sentS, rngS[i])
		private[i].ApplyExchange(policy, recv, sentP, rngP[i])
		if !sameDescs(shared[i].Entries(), private[i].Entries()) {
			t.Fatalf("step %d view %d:\n shared  %v\n private %v", step, i, shared[i], private[i])
		}
		shared[i].IncreaseAge()
		private[i].IncreaseAge()
	}
	for i := range shared {
		if rngS[i].Uint64() != rngP[i].Uint64() {
			t.Fatalf("view %d: RNG positions diverged", i)
		}
	}
}
