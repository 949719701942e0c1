// Package view implements the partial view maintained by gossip peer
// sampling protocols, together with the policy dimensions of the generic
// protocol in Section 3 of the Nylon paper (after Jelasity et al., TOCS
// 2007): gossip target selection (rand or tail), and view merging (blind,
// healer, or swapper).
//
// A view is a bounded list of peer descriptors. Each descriptor carries an
// age, increased once per shuffling period, that the tail selection and the
// healer merge policy use to prefer fresh information.
package view

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/ident"
)

// Descriptor describes one peer as known by another peer: identity, contact
// address, NAT class, and the age of this piece of information in shuffling
// periods.
type Descriptor struct {
	ID    ident.NodeID
	Addr  ident.Endpoint // public contact endpoint (NAT mapping for natted peers)
	Class ident.NATClass
	Age   uint32
}

// Fresh returns a copy of d with age zero, as exchanged by a peer describing
// itself.
func (d Descriptor) Fresh() Descriptor {
	d.Age = 0
	return d
}

// String implements fmt.Stringer.
func (d Descriptor) String() string {
	return fmt.Sprintf("%v@%v/%v age=%d", d.ID, d.Addr, d.Class, d.Age)
}

// Selection is the gossip target selection policy.
type Selection uint8

const (
	// SelectRand picks a uniformly random view entry.
	SelectRand Selection = iota
	// SelectTail picks the entry with the highest age.
	SelectTail
)

// String implements fmt.Stringer.
func (s Selection) String() string {
	switch s {
	case SelectRand:
		return "rand"
	case SelectTail:
		return "tail"
	}
	return "selection(" + strconv.Itoa(int(s)) + ")"
}

// Merge is the view merging (truncation) policy applied after a shuffle.
type Merge uint8

const (
	// MergeBlind keeps a uniformly random subset of the union.
	MergeBlind Merge = iota
	// MergeHealer keeps the youngest entries of the union.
	MergeHealer
	// MergeSwapper prefers the entries received from the other peer,
	// filling any remaining room with its own entries.
	MergeSwapper
)

// String implements fmt.Stringer.
func (m Merge) String() string {
	switch m {
	case MergeBlind:
		return "blind"
	case MergeHealer:
		return "healer"
	case MergeSwapper:
		return "swapper"
	}
	return "merge(" + strconv.Itoa(int(m)) + ")"
}

// ParseSelection parses "rand" or "tail".
func ParseSelection(s string) (Selection, error) {
	switch strings.ToLower(s) {
	case "rand":
		return SelectRand, nil
	case "tail":
		return SelectTail, nil
	}
	return 0, fmt.Errorf("view: unknown selection policy %q", s)
}

// ParseMerge parses "blind", "healer" or "swapper".
func ParseMerge(s string) (Merge, error) {
	switch strings.ToLower(s) {
	case "blind":
		return MergeBlind, nil
	case "healer":
		return MergeHealer, nil
	case "swapper":
		return MergeSwapper, nil
	}
	return 0, fmt.Errorf("view: unknown merge policy %q", s)
}

// Scratch is the reusable working storage of a view's exchange operations:
// union is where ApplyExchange builds the merged entry set, tail holds the
// entries displaced by the partial selection of moveOldestToEnd, and ages
// holds the entries' ages, where a negative age doubles as the
// "selected/dropped" mark.
//
// A Scratch is only ever live during one exchange call, so any number of
// views driven by the same goroutine (all engines of one simulation shard)
// may share a single instance: at 1M peers that turns ~1.5 KB of per-peer
// scratch into ~1.5 KB per shard. The zero Scratch is ready to use.
type Scratch struct {
	union []Descriptor
	tail  []Descriptor
	ages  []int64
}

// Observer receives view membership changes: one call per entry entering or
// leaving a view, fired from Add, Remove and ApplyExchange. Duplicate
// resolution (a younger descriptor replacing an older one for the same ID)
// is not a membership change and fires nothing.
//
// Hooks run in the view owner's execution context — under the sharded
// simulation kernel that is the owner's shard goroutine, so one Observer
// shared by many views must either be bound to a single shard or tolerate
// concurrent calls from different owners. Implementations must only
// accumulate: a hook that feeds anything back into protocol state would
// break the determinism contract instrumentation relies on.
type Observer interface {
	ViewEntryAdded(owner ident.NodeID, d Descriptor)
	ViewEntryRemoved(owner ident.NodeID, d Descriptor)
}

// View is a bounded partial view of the overlay. The zero View is unusable;
// construct with New or NewShared. View is not safe for concurrent use.
type View struct {
	self    ident.NodeID
	maxSize int
	entries []Descriptor
	sc      *Scratch
	obs     Observer
}

// New returns an empty view of the given maximum size owned by the given
// peer, with private scratch storage. It panics if maxSize is not positive.
func New(self ident.NodeID, maxSize int) *View {
	return NewShared(self, maxSize, &Scratch{})
}

// NewShared is New with caller-owned scratch storage, shared by every view
// whose exchange calls are serialized on one goroutine (the engines of one
// simulation shard). sc must not be nil.
func NewShared(self ident.NodeID, maxSize int, sc *Scratch) *View {
	if maxSize <= 0 {
		panic("view: New called with non-positive maxSize")
	}
	if sc == nil {
		panic("view: NewShared called with nil scratch")
	}
	// The entries slice reaches exactly maxSize in steady state; reserving
	// it up front replaces the append-doubling chain (and the merge-time
	// spill past maxSize lives in the scratch, never here).
	return &View{self: self, maxSize: maxSize, entries: make([]Descriptor, 0, maxSize), sc: sc}
}

// SetObserver installs the membership hook (nil to remove). Attach before
// the view's first entry if the observer's tallies are to be complete.
func (v *View) SetObserver(o Observer) { v.obs = o }

// Len returns the number of entries currently held.
func (v *View) Len() int { return len(v.entries) }

// At returns the i-th entry without copying the view. Indices are stable
// only until the next mutation; pair with Len for zero-copy iteration where
// a copy would be measurable (the simulator's samplers).
func (v *View) At(i int) Descriptor { return v.entries[i] }

// Entries returns a copy of the current entries. Callers may mutate the
// returned slice freely. Hot paths should iterate with Len and At instead.
func (v *View) Entries() []Descriptor {
	out := make([]Descriptor, len(v.entries))
	copy(out, v.entries)
	return out
}

// Contains reports whether the view holds a descriptor for the given peer.
func (v *View) Contains(id ident.NodeID) bool {
	return v.indexOf(id) >= 0
}

// Get returns the descriptor for the given peer, if present.
func (v *View) Get(id ident.NodeID) (Descriptor, bool) {
	if i := v.indexOf(id); i >= 0 {
		return v.entries[i], true
	}
	return Descriptor{}, false
}

func (v *View) indexOf(id ident.NodeID) int {
	for i, e := range v.entries {
		if e.ID == id {
			return i
		}
	}
	return -1
}

// Add inserts a descriptor if the peer is not the owner, not already present,
// and there is room. It reports whether the descriptor was inserted. Existing
// entries are never evicted: eviction is the merge policy's job.
func (v *View) Add(d Descriptor) bool {
	if d.ID == v.self || d.ID.IsNil() || len(v.entries) >= v.maxSize || v.indexOf(d.ID) >= 0 {
		return false
	}
	v.entries = append(v.entries, d)
	if v.obs != nil {
		v.obs.ViewEntryAdded(v.self, d)
	}
	return true
}

// Remove deletes the entry for the given peer, reporting whether it existed.
func (v *View) Remove(id ident.NodeID) bool {
	if i := v.indexOf(id); i >= 0 {
		d := v.entries[i]
		v.entries = append(v.entries[:i], v.entries[i+1:]...)
		if v.obs != nil {
			v.obs.ViewEntryRemoved(v.self, d)
		}
		return true
	}
	return false
}

// IncreaseAge adds one period to the age of every entry (Fig. 1, line 7).
func (v *View) IncreaseAge() {
	for i := range v.entries {
		v.entries[i].Age++
	}
}

// Select picks the gossip target according to the policy, using rng for the
// random policy. It returns false if the view is empty.
func (v *View) Select(policy Selection, rng *rand.Rand) (Descriptor, bool) {
	if len(v.entries) == 0 {
		return Descriptor{}, false
	}
	switch policy {
	case SelectTail:
		best := 0
		for i, e := range v.entries {
			if e.Age > v.entries[best].Age {
				best = i
			}
		}
		return v.entries[best], true
	default:
		return v.entries[rng.Intn(len(v.entries))], true
	}
}

// HS maps the merge policy to the healing and swapping parameters of the
// generic protocol of Jelasity et al. (TOCS 2007), which the paper's Section
// 3 configurations instantiate: blind is (H=0, S=0), healer is (H=c/2, S=0),
// swapper is (H=0, S=c/2).
func (m Merge) HS(c int) (h, s int) {
	switch m {
	case MergeHealer:
		return c / 2, 0
	case MergeSwapper:
		return 0, c / 2
	default:
		return 0, 0
	}
}

// ExchangeLen returns how many view entries accompany the sender's own fresh
// descriptor in a shuffle buffer: c/2 - 1, per the generic protocol.
func (v *View) ExchangeLen() int {
	n := v.maxSize/2 - 1
	if n < 0 {
		n = 0
	}
	if n > len(v.entries) {
		n = len(v.entries)
	}
	return n
}

// PrepareExchangeInto builds the shuffle buffer (excluding the caller's own
// descriptor, which the engine prepends): the view is permuted in place, the
// H oldest entries are moved to its end, and the first ExchangeLen entries —
// now at the head — are appended to buf (usually a reused slice truncated to
// length zero, nil for a fresh one) as the entries to ship, and the extended
// slice is returned. The shipped entries are a copy; the head placement is
// what lets ApplyExchange implement the swapper policy ("discard the entries
// just sent"). With a buffer of sufficient capacity the call performs no
// allocation.
func (v *View) PrepareExchangeInto(policy Merge, rng *rand.Rand, buf []Descriptor) []Descriptor {
	h, _ := policy.HS(v.maxSize)
	ds := v.entries
	rng.Shuffle(len(ds), func(i, j int) { ds[i], ds[j] = ds[j], ds[i] })
	v.moveOldestToEnd(ds, h)
	return append(buf, ds[:v.ExchangeLen()]...)
}

// moveOldestToEnd stably moves the h oldest entries (by age, ties resolved
// toward the earlier index) to the end of the slice, preserving the order of
// the rest. It selects the h oldest by in-place partial selection over the
// view's reusable age scratch, then compacts in one pass — no sorting, no
// per-call allocation.
func (v *View) moveOldestToEnd(ds []Descriptor, h int) {
	if h <= 0 || len(ds) <= 1 {
		return
	}
	if h > len(ds) {
		h = len(ds)
	}
	ages := v.ageScratch(len(ds))
	for i := range ds {
		ages[i] = int64(ds[i].Age)
	}
	markOldest(ages, h)
	tail := v.sc.tail[:0]
	w := 0
	for i, d := range ds {
		if ages[i] < 0 {
			tail = append(tail, d)
		} else {
			ds[w] = d
			w++
		}
	}
	copy(ds[w:], tail)
	v.sc.tail = tail
}

// ageScratch returns the reusable age scratch resized to n entries.
func (v *View) ageScratch(n int) []int64 {
	if cap(v.sc.ages) < n {
		v.sc.ages = make([]int64, n)
	}
	return v.sc.ages[:n]
}

// markOldest sets ages[i] = -1 for the h oldest entries by repeated argmax,
// ties resolved toward the earlier index. h must not exceed the number of
// unmarked entries. Views hold a few dozen entries and h is a handful, so the
// h passes stay in one or two cache lines.
func markOldest(ages []int64, h int) {
	for k := 0; k < h; k++ {
		best, bestAge := 0, int64(-1)
		for i, a := range ages {
			if a > bestAge {
				best, bestAge = i, a
			}
		}
		ages[best] = -1
	}
}

// ApplyExchange merges a received shuffle buffer into the view
// (merge_and_truncate of Fig. 1, with the select semantics of the generic
// protocol): the received entries are appended, duplicates are resolved by
// keeping the youngest, then — while the view exceeds its maximum size — the
// H oldest entries are dropped (healer), up to S of the entries listed in
// sent are dropped (swapper), and finally uniformly random entries are
// dropped. sent must be the entries shipped by the PrepareExchangeInto call of
// the same exchange (nil for bootstrap-style merges).
//
// The merge runs over the view's reusable union/mark scratch — dropped
// entries are marked, survivors compacted in a single pass — so the
// steady-state call performs no allocation.
func (v *View) ApplyExchange(policy Merge, received, sent []Descriptor, rng *rand.Rand) {
	// Build the deduplicated union in the scratch (merge order puts
	// existing entries first, so appending is the union), then mark drops in
	// the age scratch: a negative age marks a dropped entry. Building in the
	// scratch rather than in the entries backing array keeps every view's
	// entries slice at exactly maxSize capacity — the merge-time spill above
	// maxSize is shared per-shard state, not per-peer state.
	union := append(v.sc.union[:0], v.entries...)
	origLen := len(union)
	for _, d := range received {
		if d.ID == v.self || d.ID.IsNil() {
			continue
		}
		dup := -1
		for i := range union {
			if union[i].ID == d.ID {
				dup = i
				break
			}
		}
		if dup >= 0 {
			if d.Age < union[dup].Age {
				union[dup] = d
			}
			continue
		}
		union = append(union, d)
	}
	ages := v.ageScratch(len(union))
	for i := range union {
		ages[i] = int64(union[i].Age)
	}
	c := v.maxSize
	h, s := policy.HS(c)
	left := len(union)
	// Healing: drop min(h, size-c) oldest (ties resolved toward the earlier
	// index, matching repeated oldest-first removal).
	if drop := min(h, left-c); drop > 0 {
		markOldest(ages, drop)
		left -= drop
	}
	// Swapping: drop min(s, size-c) of the entries just sent.
	if drop := min(s, left-c); drop > 0 {
		for _, d := range sent {
			if drop == 0 {
				break
			}
			for i := range union {
				if union[i].ID == d.ID && ages[i] >= 0 {
					ages[i] = -1
					left--
					drop--
					break
				}
			}
		}
	}
	// Random truncation to c: drop the k-th surviving entry, which consumes
	// the RNG exactly as removing index k from a spliced slice would.
	for left > c {
		k := rng.Intn(left)
		for i, a := range ages {
			if a < 0 {
				continue
			}
			if k == 0 {
				ages[i] = -1
				break
			}
			k--
		}
		left--
	}
	// Stable compaction of the survivors back into the entries slice (at
	// most maxSize survive, so the reserved capacity always suffices).
	ents := v.entries[:0]
	for i := range union {
		if ages[i] >= 0 {
			ents = append(ents, union[i])
		}
	}
	v.entries = ents
	if v.obs != nil {
		// Membership diff: union[:origLen] mirrors the pre-merge entries
		// (dropped ones carry a negative age mark), entries beyond origLen
		// are received newcomers (surviving ones were added). Duplicate
		// resolution replaced descriptors in place — same ID, no hook.
		for i := 0; i < origLen; i++ {
			if ages[i] < 0 {
				v.obs.ViewEntryRemoved(v.self, union[i])
			}
		}
		for i := origLen; i < len(union); i++ {
			if ages[i] >= 0 {
				v.obs.ViewEntryAdded(v.self, union[i])
			}
		}
	}
	v.sc.union = union[:0]
}

// Validate checks the structural invariants of the view: no self entry, no
// nil IDs, no duplicates, size within bounds. It returns a descriptive error
// on the first violation. Tests and the simulator's self-checks use it.
func (v *View) Validate() error {
	if len(v.entries) > v.maxSize {
		return fmt.Errorf("view: %d entries exceed max %d", len(v.entries), v.maxSize)
	}
	seen := make(map[ident.NodeID]bool, len(v.entries))
	for _, e := range v.entries {
		if e.ID == v.self {
			return fmt.Errorf("view: contains owner %v", v.self)
		}
		if e.ID.IsNil() {
			return fmt.Errorf("view: contains nil ID")
		}
		if seen[e.ID] {
			return fmt.Errorf("view: duplicate entry %v", e.ID)
		}
		seen[e.ID] = true
	}
	return nil
}

// String implements fmt.Stringer.
func (v *View) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "view(%v, %d/%d):", v.self, len(v.entries), v.maxSize)
	for _, e := range v.entries {
		fmt.Fprintf(&b, " %v", e)
	}
	return b.String()
}
