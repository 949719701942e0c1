package view

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/ident"
)

func desc(id uint64, age uint32) Descriptor {
	return Descriptor{
		ID:    ident.NodeID(id),
		Addr:  ident.Endpoint{IP: ident.IP(id), Port: uint16(id)},
		Class: ident.Public,
		Age:   age,
	}
}

func TestNewPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(1, 0) did not panic")
		}
	}()
	New(1, 0)
}

func TestAddRules(t *testing.T) {
	v := New(1, 3)
	if v.Add(desc(1, 0)) {
		t.Error("Add accepted the owner's own descriptor")
	}
	if v.Add(Descriptor{}) {
		t.Error("Add accepted a nil ID")
	}
	if !v.Add(desc(2, 0)) || !v.Add(desc(3, 0)) || !v.Add(desc(4, 0)) {
		t.Fatal("Add rejected valid descriptors")
	}
	if v.Add(desc(2, 5)) {
		t.Error("Add accepted a duplicate")
	}
	if v.Add(desc(5, 0)) {
		t.Error("Add accepted beyond maxSize")
	}
	if v.Len() != 3 {
		t.Errorf("Len = %d, want 3", v.Len())
	}
	if err := v.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestGetContainsRemove(t *testing.T) {
	v := New(1, 4)
	v.Add(desc(2, 7))
	if !v.Contains(2) || v.Contains(3) {
		t.Error("Contains wrong")
	}
	d, ok := v.Get(2)
	if !ok || d.Age != 7 {
		t.Errorf("Get(2) = %v, %v", d, ok)
	}
	if !v.Remove(2) || v.Remove(2) {
		t.Error("Remove wrong")
	}
}

func TestIncreaseAge(t *testing.T) {
	v := New(1, 4)
	v.Add(desc(2, 0))
	v.Add(desc(3, 9))
	v.IncreaseAge()
	d2, _ := v.Get(2)
	d3, _ := v.Get(3)
	if d2.Age != 1 || d3.Age != 10 {
		t.Errorf("ages after increase: %d, %d; want 1, 10", d2.Age, d3.Age)
	}
}

func TestSelectEmpty(t *testing.T) {
	v := New(1, 4)
	rng := rand.New(rand.NewSource(1))
	if _, ok := v.Select(SelectRand, rng); ok {
		t.Error("Select on empty view returned an entry")
	}
}

func TestSelectTailPicksOldest(t *testing.T) {
	v := New(1, 4)
	v.Add(desc(2, 3))
	v.Add(desc(3, 9))
	v.Add(desc(4, 1))
	rng := rand.New(rand.NewSource(1))
	d, ok := v.Select(SelectTail, rng)
	if !ok || d.ID != 3 {
		t.Errorf("SelectTail = %v, %v; want n3", d, ok)
	}
}

func TestSelectRandIsUniformish(t *testing.T) {
	v := New(1, 3)
	v.Add(desc(2, 0))
	v.Add(desc(3, 0))
	v.Add(desc(4, 0))
	rng := rand.New(rand.NewSource(42))
	counts := map[ident.NodeID]int{}
	const trials = 3000
	for i := 0; i < trials; i++ {
		d, _ := v.Select(SelectRand, rng)
		counts[d.ID]++
	}
	for id, c := range counts {
		if c < trials/3-200 || c > trials/3+200 {
			t.Errorf("peer %v selected %d times out of %d, far from uniform", id, c, trials)
		}
	}
}

func TestApplyExchangeHealerDropsOldest(t *testing.T) {
	v := New(1, 2)
	v.Add(desc(2, 5))
	v.Add(desc(3, 1))
	rng := rand.New(rand.NewSource(1))
	// Union is {2(age5), 3(age1), 4(age0), 5(age9)}; healer drops
	// min(c/2=1, size-c=2) = 1 oldest (5), then random truncation to 2.
	v.ApplyExchange(MergeHealer, []Descriptor{desc(4, 0), desc(5, 9)}, nil, rng)
	if v.Len() != 2 {
		t.Fatalf("Len = %d, want 2", v.Len())
	}
	if v.Contains(5) {
		t.Errorf("healer kept the oldest entry: %v", v)
	}
}

func TestApplyExchangeSwapperDropsSent(t *testing.T) {
	v := New(1, 2)
	v.Add(desc(2, 0))
	v.Add(desc(3, 0))
	rng := rand.New(rand.NewSource(1))
	sent := []Descriptor{desc(2, 0)}
	// Union has 4 entries, c=2, S=c/2=1: the sent entry n2 is dropped
	// first, then one random drop brings the view to 2.
	v.ApplyExchange(MergeSwapper, []Descriptor{desc(4, 50), desc(5, 60)}, sent, rng)
	if v.Len() != 2 {
		t.Fatalf("Len = %d, want 2", v.Len())
	}
	if v.Contains(2) {
		t.Errorf("swapper kept the sent entry: %v", v)
	}
}

func TestApplyExchangeDedupKeepsYoungerAndUpdatesAddr(t *testing.T) {
	v := New(1, 4)
	old := desc(2, 9)
	v.Add(old)
	fresh := desc(2, 1)
	fresh.Addr = ident.Endpoint{IP: 99, Port: 99}
	rng := rand.New(rand.NewSource(1))
	v.ApplyExchange(MergeHealer, []Descriptor{fresh}, nil, rng)
	d, ok := v.Get(2)
	if !ok || d.Age != 1 || d.Addr != fresh.Addr {
		t.Errorf("dedup kept stale descriptor: %v", d)
	}
	// An older duplicate must not replace a younger existing entry.
	v.ApplyExchange(MergeHealer, []Descriptor{desc(2, 8)}, nil, rng)
	d, _ = v.Get(2)
	if d.Age != 1 {
		t.Errorf("older duplicate overwrote younger entry: %v", d)
	}
}

func TestApplyExchangeExcludesSelfAndNil(t *testing.T) {
	v := New(1, 4)
	rng := rand.New(rand.NewSource(1))
	v.ApplyExchange(MergeBlind, []Descriptor{desc(1, 0), {}, desc(2, 0)}, nil, rng)
	if v.Contains(1) || v.Len() != 1 {
		t.Errorf("merge admitted self or nil: %v", v)
	}
}

func TestApplyExchangeNoTruncationNeeded(t *testing.T) {
	v := New(1, 10)
	v.Add(desc(2, 0))
	rng := rand.New(rand.NewSource(1))
	v.ApplyExchange(MergeBlind, []Descriptor{desc(3, 0)}, nil, rng)
	if v.Len() != 2 {
		t.Errorf("Len = %d, want 2", v.Len())
	}
}

func TestPrepareExchangeShipsHalfView(t *testing.T) {
	v := New(1, 8)
	for i := 2; i <= 9; i++ {
		v.Add(desc(uint64(i), uint32(i)))
	}
	rng := rand.New(rand.NewSource(7))
	sent := v.PrepareExchangeInto(MergeHealer, rng, nil)
	if len(sent) != 3 { // c/2 - 1 = 3
		t.Fatalf("sent %d entries, want 3", len(sent))
	}
	// With H = c/2 = 4, the 4 oldest (ages 6..9) are moved to the end and
	// must not be shipped.
	for _, d := range sent {
		if d.Age >= 6 {
			t.Errorf("healer shipped old entry %v", d)
		}
	}
	// The view itself is only permuted, never shrunk.
	if v.Len() != 8 {
		t.Errorf("PrepareExchangeInto changed view size to %d", v.Len())
	}
	if err := v.Validate(); err != nil {
		t.Error(err)
	}
}

func TestPrepareExchangeSmallView(t *testing.T) {
	v := New(1, 8)
	v.Add(desc(2, 0))
	rng := rand.New(rand.NewSource(7))
	if sent := v.PrepareExchangeInto(MergeBlind, rng, nil); len(sent) != 1 {
		t.Errorf("sent %d entries from 1-entry view, want 1", len(sent))
	}
	empty := New(1, 2)
	if sent := empty.PrepareExchangeInto(MergeBlind, rng, nil); len(sent) != 0 {
		t.Errorf("sent %d entries from empty view", len(sent))
	}
}

func TestExchangeLen(t *testing.T) {
	v := New(1, 15)
	if v.ExchangeLen() != 0 {
		t.Errorf("ExchangeLen on empty view = %d", v.ExchangeLen())
	}
	for i := 2; i <= 16; i++ {
		v.Add(desc(uint64(i), 0))
	}
	if v.ExchangeLen() != 6 { // 15/2 - 1
		t.Errorf("ExchangeLen = %d, want 6", v.ExchangeLen())
	}
}

func TestHSMapping(t *testing.T) {
	cases := []struct {
		m    Merge
		h, s int
	}{
		{MergeBlind, 0, 0},
		{MergeHealer, 7, 0},
		{MergeSwapper, 0, 7},
	}
	for _, c := range cases {
		h, s := c.m.HS(15)
		if h != c.h || s != c.s {
			t.Errorf("%v.HS(15) = (%d,%d), want (%d,%d)", c.m, h, s, c.h, c.s)
		}
	}
}

// TestMergeInvariants is a property test: after any merge, the view holds no
// duplicates, no self, and at most maxSize entries, and every kept entry came
// from the union of the previous view and the received slice.
func TestMergeInvariants(t *testing.T) {
	f := func(ownIDs, recvIDs []uint16, policyRaw uint8, seed int64) bool {
		policy := Merge(policyRaw % 3)
		rng := rand.New(rand.NewSource(seed))
		v := New(1, 8)
		valid := map[ident.NodeID]bool{}
		for _, id := range ownIDs {
			d := desc(uint64(id), uint32(id%13))
			if v.Add(d) {
				valid[d.ID] = true
			}
		}
		var recv []Descriptor
		for _, id := range recvIDs {
			d := desc(uint64(id), uint32(id%7))
			recv = append(recv, d)
			if d.ID != 1 && !d.ID.IsNil() {
				valid[d.ID] = true
			}
		}
		var sent []Descriptor
		if len(ownIDs) > 0 {
			sent = v.PrepareExchangeInto(policy, rng, nil)
		}
		v.ApplyExchange(policy, recv, sent, rng)
		if err := v.Validate(); err != nil {
			return false
		}
		for _, e := range v.Entries() {
			if !valid[e.ID] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestApplyExchangeHealerProperty: with healer, the H oldest entries of an
// oversized union never survive.
func TestApplyExchangeHealerProperty(t *testing.T) {
	f := func(ownIDs, recvIDs []uint16, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const c = 5
		v := New(1, c)
		for _, id := range ownIDs {
			v.Add(desc(uint64(id), uint32(id)))
		}
		union := map[ident.NodeID]uint32{}
		for _, e := range v.Entries() {
			union[e.ID] = e.Age
		}
		var recv []Descriptor
		for _, id := range recvIDs {
			d := desc(uint64(id), uint32(id/2))
			recv = append(recv, d)
			if d.ID == 1 || d.ID.IsNil() {
				continue
			}
			if age, ok := union[d.ID]; !ok || d.Age < age {
				union[d.ID] = d.Age
			}
		}
		v.ApplyExchange(MergeHealer, recv, nil, rng)
		if len(union) <= c {
			return v.Len() == len(union)
		}
		// The drop-count h = min(c/2, |union|-c) oldest entries must be gone.
		h := c / 2
		if over := len(union) - c; over < h {
			h = over
		}
		ages := make([]int, 0, len(union))
		for _, age := range union {
			ages = append(ages, int(age))
		}
		sort.Sort(sort.Reverse(sort.IntSlice(ages)))
		// Any kept entry strictly older than the h-th oldest age proves a
		// violation only when ages are distinct; allow ties by checking
		// counts instead: at most (number of union entries with age >=
		// threshold) - h entries of such age may survive.
		threshold := ages[h-1]
		oldCount := 0
		for _, a := range ages {
			if a >= threshold {
				oldCount++
			}
		}
		keptOld := 0
		for _, e := range v.Entries() {
			if int(e.Age) >= threshold {
				keptOld++
			}
		}
		return keptOld <= oldCount-h
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPolicyParsersAndStrings(t *testing.T) {
	for _, s := range []Selection{SelectRand, SelectTail} {
		got, err := ParseSelection(s.String())
		if err != nil || got != s {
			t.Errorf("ParseSelection(%q) = %v, %v", s.String(), got, err)
		}
	}
	for _, m := range []Merge{MergeBlind, MergeHealer, MergeSwapper} {
		got, err := ParseMerge(m.String())
		if err != nil || got != m {
			t.Errorf("ParseMerge(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := ParseSelection("x"); err == nil {
		t.Error("ParseSelection(x) succeeded")
	}
	if _, err := ParseMerge("x"); err == nil {
		t.Error("ParseMerge(x) succeeded")
	}
	if Selection(9).String() == "" || Merge(9).String() == "" {
		t.Error("String on unknown policy empty")
	}
}

func TestDescriptorFreshAndString(t *testing.T) {
	d := desc(7, 42)
	if f := d.Fresh(); f.Age != 0 || f.ID != d.ID {
		t.Errorf("Fresh = %v", f)
	}
	if d.String() == "" || New(1, 2).String() == "" {
		t.Error("String() empty")
	}
}
