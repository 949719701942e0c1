// Package rt implements the Nylon routing table (Fig. 5 of the paper): a map
// from destination peers to the rendez-vous peer (RVP) through which they can
// be reached, with a time-to-live per entry.
//
// The RVP for a destination is the peer a node shuffled with to obtain the
// destination's descriptor. An entry whose RVP is the destination itself
// means direct communication is possible (a NAT hole is open). TTLs decay in
// real (virtual) time; expired entries are unusable and purged lazily.
//
// The table is optimized for the simulator's per-datagram access pattern
// (every received datagram installs or refreshes several routes, every
// shuffle period purges) and for its memory profile (one table per simulated
// peer, a hundred-odd rows each, hundreds of thousands of tables):
//
//   - Rows live whole — destination ID, interned RVP handle, expiry — in
//     fixed-size chunks, 20 bytes per row instead of the 40 a raw
//     descriptor row costs (the 64-bit fields are stored as 32-bit halves,
//     so the row aligns to 4 and carries no padding). Row-major beats the
//     parallel-column layout an earlier version used because the dominant
//     access is a point access (find a destination, check its expiry,
//     rewrite its RVP), which now touches one or two cache lines instead of
//     three; the purge scan the columns favoured is paced down by the caller
//     (see Purge) and runs sequentially either way.
//     Chunks are never copied, and they belong to the table's Store, not to
//     the table: growing takes a chunk from the store's free list (or
//     allocates one), and a removal that empties the trailing chunk hands it
//     back. A table's row count follows its peer's shuffle traffic, up and
//     down, so a chunk one table's purge frees is the next chunk another
//     table of the shard grows into: the bytes allocated are the shard's
//     high-water of live chunks, not the sum of every table's own
//     high-water. RVP descriptors are resolved through the store's intern
//     table (see package intern): the same peer's descriptor is referenced
//     by thousands of routing rows, so sharing turns O(rows) descriptor
//     storage into O(distinct peers).
//   - The index is a small open-addressed hash of 4-byte cells (an 8-bit
//     fingerprint over a 24-bit row index, see slot) with backward-shift
//     deletion, so the steady delete/insert churn of per-tick purges leaves
//     no tombstones behind and the table never rehashes except to grow. It
//     grows only past 7/8 load. At that load the textbook linear-probing
//     bounds put a hit at about 4.5 cells (18 bytes: one cache line, two
//     when it straddles) and a miss at about 32 (128 bytes: two or three
//     adjacent lines, read sequentially), and the fingerprint rejects a
//     foreign cell without loading its row. The denser index thus costs a
//     few cell compares, and keeps every table of up to 224 rows in its
//     first 256-cell index.
//
// All operations are allocation-free once the shard's store holds its
// high-water of live chunks and each table its high-water index; a generic
// map was measurably slower here (hashing dominated) and a plain linear scan
// stopped winning past ~100 live routes.
package rt

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/ident"
	"repro/internal/intern"
	"repro/internal/prefetch"
	"repro/internal/view"
)

// Entry is one routing table row: the next RVP toward a destination and the
// absolute time at which the route expires.
type Entry struct {
	RVP      view.Descriptor
	ExpireAt int64 // virtual time, milliseconds
}

// A slot of the open-addressed index packs an 8-bit hash fingerprint (top
// byte) with a 1-based row index (low 24 bits); 0 marks an empty cell.
// Probes reject on the fingerprint without touching the row storage and only
// confirm a match against the dests column, which halves the row loads of a
// find at zero footprint cost (a separate fingerprint array — doubling the
// index, which exists once per simulated peer — was tried earlier and lost).
// 24 bits cap a table at ~16M rows; tables hold one row per known peer.
type slot = uint32

// slotRowMask extracts the 1-based row index of a cell; the byte above it is
// the fingerprint.
const slotRowMask = 1<<24 - 1

// rowChunkSize is the row-storage granularity: 32 rows (640 B, an exact
// allocator size class) per chunk. A table holds at most one partly filled
// chunk, so the finer grain is what lets its storage follow its live rows.
const rowChunkSize = 32

// initialSlots sizes a table's first index: holds up to 224 rows at the 7/8
// growth bound, which covers nearly every table for a whole run.
const initialSlots = 256

// rtRow is one routing-table row: 20 bytes, at most two cache lines, usually
// one. The destination and the expiry are split into 32-bit halves so that
// the row aligns to 4: as whole 64-bit fields they would pad it to 24 bytes
// around the 4-byte Handle.
type rtRow struct {
	destLo, destHi     uint32
	expireLo, expireHi uint32
	rvph               intern.Handle
}

func (r *rtRow) dest() ident.NodeID {
	return ident.NodeID(uint64(r.destHi)<<32 | uint64(r.destLo))
}

func (r *rtRow) expire() int64 {
	return int64(uint64(r.expireHi)<<32 | uint64(r.expireLo))
}

func (r *rtRow) setExpire(e int64) {
	r.expireLo, r.expireHi = uint32(e), uint32(uint64(e)>>32)
}

// rowChunk is one block of rows.
type rowChunk struct {
	r [rowChunkSize]rtRow
}

// Store is what the routing tables of one shard share: the descriptor intern
// table their RVP handles resolve through, and the empty row chunks their
// removals handed back. A chunk's identity is never observable — a table
// reads only the rows it wrote — so which chunk a table grows into changes
// no answer, row order or snapshot byte; it only decides whether growing
// allocates. Every table of a store, and so the store itself, must be used
// from one goroutine at a time (in the simulator, the shard's), except for
// Peek, which touches neither the free list nor the intern table's writes.
type Store struct {
	in *intern.Descriptors
	// free holds empty chunks; every row of a free chunk is zero.
	free []*rowChunk
}

// NewStore returns a store over the given intern table. in must not be nil.
func NewStore(in *intern.Descriptors) *Store {
	if in == nil {
		panic("rt: NewStore called with nil intern table")
	}
	return &Store{in: in}
}

// MakeTable returns an empty routing table owned by the given peer, drawing
// its row chunks from the store. The table is a value so that its owner can
// hold it inline; it must not be copied once used.
func (s *Store) MakeTable(self ident.NodeID) Table {
	return Table{self: self, st: s, minExpire: noExpiry}
}

// chunk returns an empty chunk: the most recently freed one, or a new one.
func (s *Store) chunk() *rowChunk {
	if n := len(s.free); n > 0 {
		c := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		return c
	}
	return &rowChunk{}
}

// Table maps destinations to RVP entries. The zero Table is unusable;
// construct with NewShared or Store.MakeTable. Table is not safe for
// concurrent use.
type Table struct {
	// slots is the open-addressed index (see slot). Backward-shift deletion
	// keeps it tombstone-free, so its load is always exactly
	// nrows/len(slots). It leads the struct, so a hint of the table's own
	// address warms the header Prefetch reads.
	slots []slot
	self  ident.NodeID
	st    *Store
	// Chunked row storage: row i lives at rows[i/32] offset i%32. Deletion
	// swaps with the last row, so order is arbitrary. nrows is the live row
	// count, and rows holds exactly the chunks that hold a live row:
	// ceil(nrows/32) of them.
	rows  []*rowChunk
	nrows int
	// minExpire is a conservative lower bound on the earliest expiry of any
	// row (maxInt64 when empty): installs lower it, removals and refreshes
	// only raise the true minimum and leave it untouched. Purge skips its
	// whole scan while now <= minExpire — no row can have expired — which at
	// simulation scale (one purge per peer per period against 90 s TTLs)
	// removes ~98% of the scans. Observable behaviour is identical: the
	// bound never claims a live row expired, and whenever any row truly
	// expired the scan still runs.
	minExpire int64
}

// noExpiry is minExpire's empty-table sentinel.
const noExpiry = int64(^uint64(0) >> 1)

// noteExpiry lowers the minimum-expiry bound to cover a row installed or
// rewritten with the given expiry.
func (t *Table) noteExpiry(e int64) {
	if e < t.minExpire {
		t.minExpire = e
	}
}

// rowAt returns row i; dest/rvpH/expire/setRow are its point accessors.
func (t *Table) rowAt(i int) *rtRow       { return &t.rows[i/rowChunkSize].r[i%rowChunkSize] }
func (t *Table) dest(i int) ident.NodeID  { return t.rowAt(i).dest() }
func (t *Table) rvpH(i int) intern.Handle { return t.rowAt(i).rvph }
func (t *Table) expire(i int) int64       { return t.rowAt(i).expire() }
func (t *Table) setRow(i int, d ident.NodeID, h intern.Handle, e int64) {
	r := t.rowAt(i)
	*r = rtRow{destLo: uint32(d), destHi: uint32(uint64(d) >> 32), rvph: h}
	r.setExpire(e)
}

// home returns the starting probe position of id in the current index.
func (t *Table) home(id ident.NodeID) int {
	return int(fpOf(id)) & (len(t.slots) - 1)
}

// fpBits returns id's fingerprint in cell position: the top byte of the hash,
// disjoint from the low bits home consumes for any index of ≤16M cells.
func fpBits(id ident.NodeID) slot {
	return slot(fpOf(id)) &^ slotRowMask
}

// appendRow adds a row at index nrows, taking a chunk from the store when the
// last one is full.
func (t *Table) appendRow(d ident.NodeID, h intern.Handle, e int64) {
	if t.nrows == len(t.rows)*rowChunkSize {
		t.rows = append(t.rows, t.st.chunk())
	}
	t.nrows++
	t.setRow(t.nrows-1, d, h, e)
}

// NewShared returns an empty routing table owned by the given peer, in a
// private store around the caller's descriptor intern table. Sharing the
// intern table changes nothing observable — the equivalence test pins it —
// only where the descriptor bytes live. in must not be nil.
func NewShared(self ident.NodeID, in *intern.Descriptors) *Table {
	t := NewStore(in).MakeTable(self)
	return &t
}

// fpOf returns the index fingerprint of a destination ID: Fibonacci hashing,
// so the sequential IDs the simulator assigns spread across the table instead
// of clustering.
func fpOf(id ident.NodeID) uint32 {
	return uint32((uint64(id) * 0x9e3779b97f4a7c15) >> 32)
}

// find returns the row index of dest, or -1. It must stay a pure read: Peek
// runs it from several goroutines at once.
func (t *Table) find(dest ident.NodeID) int {
	if len(t.slots) == 0 {
		return -1
	}
	mask := len(t.slots) - 1
	fp := fpBits(dest)
	for j := t.home(dest); ; j = (j + 1) & mask {
		cell := t.slots[j]
		if cell == 0 {
			return -1
		}
		if cell&^slotRowMask == fp {
			if row := int(cell & slotRowMask); t.dest(row-1) == dest {
				return row - 1
			}
		}
	}
}

// Prefetch hints the index cell where a find of dest starts. It reads the
// slots header and nothing else, and writes nothing.
func (t *Table) Prefetch(dest ident.NodeID) {
	if len(t.slots) > 0 {
		prefetch.Line(&t.slots[t.home(dest)])
	}
}

// slotOf returns the index position whose cell points at row i. The row must
// exist.
func (t *Table) slotOf(i int) int {
	mask := len(t.slots) - 1
	d := t.dest(i)
	want := fpBits(d) | slot(i+1)
	for j := t.home(d); ; j = (j + 1) & mask {
		if t.slots[j] == want {
			return j
		}
	}
}

// insert adds dest's row index to the index, growing first if the load would
// exceed 7/8.
func (t *Table) insert(dest ident.NodeID, row int) {
	if 8*(t.nrows+1) > 7*len(t.slots) {
		t.grow()
	}
	mask := len(t.slots) - 1
	for j := t.home(dest); ; j = (j + 1) & mask {
		if t.slots[j] == 0 {
			t.slots[j] = fpBits(dest) | slot(row+1)
			return
		}
	}
}

// grow re-indexes every row into a slot array sized to keep the load at or
// below 7/8 after the coming insert.
func (t *Table) grow() {
	want := initialSlots
	for 8*(t.nrows+1) > 7*want {
		want *= 2
	}
	t.slots = make([]slot, want)
	mask := want - 1
	for i := 0; i < t.nrows; i++ {
		d := t.dest(i)
		for j := t.home(d); ; j = (j + 1) & mask {
			if t.slots[j] == 0 {
				t.slots[j] = fpBits(d) | slot(i+1)
				break
			}
		}
	}
}

// deleteSlot empties index cell j, shifting the following cluster back so no
// tombstone is left behind (standard backward-shift deletion for linear
// probing).
func (t *Table) deleteSlot(j int) {
	mask := len(t.slots) - 1
	k := j
	for {
		k = (k + 1) & mask
		cell := t.slots[k]
		if cell == 0 {
			break
		}
		// The entry at k may fill the hole iff its home position lies at or
		// before the hole on the cyclic probe path ending at k.
		home := t.home(t.dest(int(cell&slotRowMask) - 1))
		if (k-home)&mask >= (k-j)&mask {
			t.slots[j] = cell
			j = k
		}
	}
	t.slots[j] = 0
}

// removeAt deletes row i by swapping in the last row and fixing the index.
// The vacated last row is zeroed; when it was the only row of the trailing
// chunk, that chunk — now all zero — goes back to the store.
func (t *Table) removeAt(i int) {
	t.deleteSlot(t.slotOf(i))
	last := t.nrows - 1
	if i != last {
		// slotOf(last) must run after the shift above: the delete may have
		// moved the last row's cell.
		k := t.slotOf(last)
		t.slots[k] = t.slots[k]&^slotRowMask | slot(i+1)
		t.setRow(i, t.dest(last), t.rvpH(last), t.expire(last))
	}
	t.setRow(last, 0, 0, 0)
	t.nrows = last
	if last%rowChunkSize == 0 {
		k := len(t.rows) - 1
		t.st.free = append(t.st.free, t.rows[k])
		t.rows[k] = nil
		t.rows = t.rows[:k]
	}
	if last == 0 {
		t.minExpire = noExpiry
	}
}

// Set installs or refreshes the route to dest through rvp, expiring at the
// given time. A fresher (later-expiring) existing route through a different
// RVP is kept: routes are only replaced by strictly better information.
// Routes to the owner itself are ignored.
func (t *Table) Set(dest ident.NodeID, rvp view.Descriptor, expireAt int64) {
	if dest == t.self || dest.IsNil() || rvp.ID.IsNil() {
		return
	}
	if i := t.find(dest); i >= 0 {
		// A direct route (RVP == dest) always beats an indirect one with
		// the same or earlier expiry; otherwise keep the later expiry.
		r := t.rowAt(i)
		if r.expire() > expireAt && !(rvp.ID == dest && t.st.in.At(r.rvph).ID != dest) {
			return
		}
		r.rvph = t.st.in.Intern(rvp)
		r.setExpire(expireAt)
		t.noteExpiry(expireAt)
		return
	}
	t.insert(dest, t.nrows)
	t.appendRow(dest, t.st.in.Intern(rvp), expireAt)
	t.noteExpiry(expireAt)
}

// SetDirect records that dest itself is directly reachable until expireAt
// (update_next_RVP(p, p, HOLE_TIMEOUT) in the paper's pseudocode).
func (t *Table) SetDirect(dest view.Descriptor, expireAt int64) {
	t.Set(dest.ID, dest, expireAt)
}

// Next returns the next RVP to use for dest, per the paper's next_RVP(): the
// destination itself when a direct hole is open, otherwise the stored RVP.
// The boolean is false when no live route exists. Public destinations never
// need a table entry and are handled by the caller.
func (t *Table) Next(dest ident.NodeID, now int64) (view.Descriptor, bool) {
	i := t.find(dest)
	if i < 0 {
		return view.Descriptor{}, false
	}
	if t.expire(i) < now {
		t.removeAt(i)
		return view.Descriptor{}, false
	}
	return t.st.in.At(t.rvpH(i)), true
}

// Peek is Next for observers: the same answer, with the table left exactly as
// it was. Where Next purges the expired row it trips over, Peek leaves expired
// rows for the owner's own Next or Purge. Measurement reads other peers'
// tables through it — from several goroutines at once, which only a pure read
// allows — so that sampling a run never changes what the run, or a snapshot of
// it, holds afterwards.
func (t *Table) Peek(dest ident.NodeID, now int64) (view.Descriptor, bool) {
	i := t.find(dest)
	if i < 0 || t.expire(i) < now {
		return view.Descriptor{}, false
	}
	return t.st.in.At(t.rvpH(i)), true
}

// TTL returns the remaining lifetime, in milliseconds, of the route to dest,
// or zero if none exists. The result is what a peer advertises alongside the
// destination's descriptor during a shuffle.
func (t *Table) TTL(dest ident.NodeID, now int64) int64 {
	i := t.find(dest)
	if i < 0 || t.expire(i) < now {
		return 0
	}
	if ttl := t.expire(i) - now; ttl >= 0 {
		return ttl
	}
	// Guard against overflow on pathological inputs.
	return 0
}

// Purge removes expired entries (decrease_routing_table_ttls in the paper's
// pseudocode; this implementation stores absolute expiry times instead of
// decrementing counters, which is equivalent and cheaper). The scan runs
// sequentially over the row chunks, touching the index only on removal.
func (t *Table) Purge(now int64) {
	if now <= t.minExpire {
		// No row can have expired: every expiry is >= minExpire >= now.
		return
	}
	newMin := noExpiry
	for i := 0; i < t.nrows; {
		e := t.expire(i)
		if e < now {
			t.removeAt(i)
			continue // the swapped-in row still needs checking
		}
		if e < newMin {
			newMin = e
		}
		i++
	}
	// The scan visited every surviving row, so the bound is exact again.
	t.minExpire = newMin
}

// Len returns the number of entries, including any not yet purged.
func (t *Table) Len() int { return t.nrows }

// EachRow visits every row in storage order, resolving the RVP handle to its
// descriptor. Checkpoint capture uses it: storage order is part of the
// table's exact state (deletion swaps depend on it), so replaying rows in
// this order through LoadRow rebuilds an identical table. Expired rows are
// visited too: until a purge runs they are part of that order.
func (t *Table) EachRow(fn func(dest ident.NodeID, rvp view.Descriptor, expireAt int64)) {
	for i := 0; i < t.nrows; i++ {
		r := t.rowAt(i)
		fn(r.dest(), t.st.in.At(r.rvph), r.expire())
	}
}

// LoadRow appends a row verbatim during checkpoint restore: no freshness
// arbitration (Set's job, already done by the original run), no self or nil
// filtering, expired rows accepted. Rows must be loaded in EachRow order
// into a fresh table; the RVP descriptor is re-interned through the table's
// own intern table, since handles do not survive serialization.
func (t *Table) LoadRow(dest ident.NodeID, rvp view.Descriptor, expireAt int64) {
	t.insert(dest, t.nrows)
	t.appendRow(dest, t.st.in.Intern(rvp), expireAt)
	t.noteExpiry(expireAt)
}

// MinExpireBound returns the table's conservative earliest-expiry bound, and
// RestoreMinExpire restores it. The bound is pure scan-avoidance state — a
// lower bound never claims a live row expired — but capturing it keeps a
// restored table byte-identical to the original rather than merely
// equivalent.
func (t *Table) MinExpireBound() int64 { return t.minExpire }

// RestoreMinExpire sets the earliest-expiry bound to a captured value. Call
// after the LoadRow replay; v must be a valid lower bound for the loaded
// rows (any value MinExpireBound returned for the same rows is).
func (t *Table) RestoreMinExpire(v int64) { t.minExpire = v }

// Get returns the raw entry for dest, if present and live.
func (t *Table) Get(dest ident.NodeID, now int64) (Entry, bool) {
	i := t.find(dest)
	if i < 0 || t.expire(i) < now {
		return Entry{}, false
	}
	return Entry{RVP: t.st.in.At(t.rvpH(i)), ExpireAt: t.expire(i)}, true
}

// String implements fmt.Stringer.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "rt(%v, %d entries):", t.self, t.nrows)
	order := make([]int, t.nrows)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return t.dest(order[a]) < t.dest(order[b]) })
	for _, i := range order {
		fmt.Fprintf(&b, " %v->%v@%d", t.dest(i), t.st.in.At(t.rvpH(i)).ID, t.expire(i))
	}
	return b.String()
}
