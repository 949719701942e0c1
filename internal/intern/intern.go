// Package intern provides an append-only intern table for peer descriptors.
//
// At simulation scale the same descriptor value — one peer's identity,
// advertised endpoint and NAT class — is stored thousands of times across the
// routing tables of every peer that has heard of it (the probe behind
// DESIGN.md §7 measured ~17 stored copies per distinct descriptor at 10k
// peers). Interning collapses those copies to a 4-byte handle into one shared
// per-shard table: the routing rows shrink from a 24-byte descriptor to a
// uint32, and the descriptor bytes exist once per shard instead of once per
// reference.
//
// A Descriptors table is owned by one simulation shard: all engines of the
// shard share it, and only the shard's events (serialized by the kernel's
// phase hand-offs) touch it. Handles are shard-local and never cross shards;
// they are also never part of observable simulation state — only the
// descriptor values resolved through At are — so runs stay bit-identical for
// any shard or worker count even though handle numbering differs.
//
// Per-shard tables alone still cost O(shards × peers): in a well-mixed
// overlay every shard eventually hears about nearly every peer, so each
// shard re-interns almost the whole population. NewLayered removes that
// duplication: a network-wide base table holds every peer's advertised
// descriptor (written only at attach time, in barrier context, so shards may
// read it lock-free), and the per-shard layer keeps only learned variants —
// observed symmetric-NAT mappings, hole-punched endpoints — which are
// naturally shard-local. At 100k peers × 32 shards this turns ~260 MB of
// duplicated intern state into ~4 MB of base plus a few hundred KB per
// shard.
//
// Tables are append-only: descriptors are never removed, matching the
// routing tables' access pattern (rows expire, the distinct-descriptor set
// only grows within a run). Lookup is one open-addressed probe over 8-byte
// {fingerprint, index} slots.
package intern

import (
	"repro/internal/view"
)

// Handle references one interned descriptor. The zero Handle is reserved and
// never returned by Intern. In layered tables the top bit distinguishes
// layer-local handles from base handles; handle values are an internal
// matter between a table and its callers — only the descriptors resolved
// through At are ever observable.
type Handle uint32

// localBit marks a handle minted by a layer rather than its base.
const localBit Handle = 1 << 31

// slot is one index cell: fp is the descriptor hash fingerprint, idx the
// 1-based handle (0 marks an empty cell).
type slot struct {
	fp  uint32
	idx uint32
}

// Descriptors interns view.Descriptor values. The zero value is ready to use.
// It is not safe for concurrent use: one shard owns it (a base table under
// NewLayered is the exception — it is written only in barrier context and
// read lock-free by the layers).
type Descriptors struct {
	// base, when non-nil, is the read-only fallback layer: descriptors
	// found there are returned as base handles and never copied into this
	// table.
	base  *Descriptors
	descs []view.Descriptor // handle h (without localBit) lives at descs[h-1]
	slots []slot
}

// NewLayered returns a table layered over base: Intern first consults base
// (read-only — it never inserts there) and only stores descriptors base does
// not know. base must only be appended to in barrier context, where no layer
// is being read.
func NewLayered(base *Descriptors) *Descriptors {
	if base == nil {
		panic("intern: NewLayered called with nil base")
	}
	return &Descriptors{base: base}
}

// hash mixes every descriptor field (a different Age is a different intern
// entry, so At round-trips exactly).
func hash(d view.Descriptor) uint32 {
	h := uint64(d.ID)
	h ^= uint64(uint32(d.Addr.IP))<<16 | uint64(d.Addr.Port)
	h *= 0x9e3779b97f4a7c15
	h ^= uint64(d.Class)<<32 | uint64(d.Age)
	h *= 0x9e3779b97f4a7c15
	return uint32(h >> 32)
}

// Len returns the number of distinct descriptors interned in this table
// (excluding its base layer).
func (t *Descriptors) Len() int { return len(t.descs) }

// At returns the descriptor for a handle previously returned by Intern. It
// panics on the zero handle or a handle from another table.
func (t *Descriptors) At(h Handle) view.Descriptor {
	if t.base != nil && h&localBit == 0 {
		return t.base.descs[h-1]
	}
	return t.descs[h&^localBit-1]
}

// lookup returns the handle for d if it is already interned here, without
// inserting.
func (t *Descriptors) lookup(d view.Descriptor) (Handle, bool) {
	if len(t.slots) == 0 {
		return 0, false
	}
	fp := hash(d)
	mask := len(t.slots) - 1
	for j := int(fp) & mask; ; j = (j + 1) & mask {
		s := t.slots[j]
		if s.idx == 0 {
			return 0, false
		}
		if s.fp == fp && t.descs[s.idx-1] == d {
			return Handle(s.idx), true
		}
	}
}

// Intern returns the canonical handle for d, adding it to the table on first
// sight. In a layered table, descriptors the base knows resolve to base
// handles; everything else lands in the layer.
func (t *Descriptors) Intern(d view.Descriptor) Handle {
	if t.base != nil {
		if h, ok := t.base.lookup(d); ok {
			return h
		}
		if h, ok := t.lookup(d); ok {
			return h | localBit
		}
		return t.insert(d) | localBit
	}
	if h, ok := t.lookup(d); ok {
		return h
	}
	return t.insert(d)
}

// insert appends d and indexes it, growing the index at 2/3 load.
func (t *Descriptors) insert(d view.Descriptor) Handle {
	fp := hash(d)
	t.descs = append(t.descs, d)
	idx := uint32(len(t.descs))
	if 3*(len(t.descs)+1) > 2*len(t.slots) {
		t.grow()
		return Handle(idx)
	}
	mask := len(t.slots) - 1
	for j := int(fp) & mask; ; j = (j + 1) & mask {
		if t.slots[j].idx == 0 {
			t.slots[j] = slot{fp: fp, idx: idx}
			return Handle(idx)
		}
	}
}

// grow rebuilds the index twice as large (min 64 slots).
func (t *Descriptors) grow() {
	want := 64
	for 3*(len(t.descs)+1) > 2*want {
		want *= 2
	}
	t.slots = make([]slot, want)
	mask := want - 1
	for i := range t.descs {
		fp := hash(t.descs[i])
		for j := int(fp) & mask; ; j = (j + 1) & mask {
			if t.slots[j].idx == 0 {
				t.slots[j] = slot{fp: fp, idx: uint32(i + 1)}
				break
			}
		}
	}
}
