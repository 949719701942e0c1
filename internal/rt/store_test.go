package rt

import (
	"math/rand"
	"testing"

	"repro/internal/ident"
	"repro/internal/intern"
	"repro/internal/view"
)

// TestStoreReusesChunks moves a chunk back and forth between two tables of
// one store: each half step, one table's purge empties its trailing chunk
// and the other table grows by one chunk. The growth must take the freed
// chunk rather than allocate, so a shard's row bytes follow its live rows.
func TestStoreReusesChunks(t *testing.T) {
	st := NewStore(&intern.Descriptors{})
	ta, tb := st.MakeTable(1), st.MakeTable(2)
	a, b := &ta, &tb
	rvp := d(7)
	const forever = int64(1) << 62
	// Each table keeps one permanent chunk of rows; the second chunk's rows
	// expire at the step they were installed in.
	setRange := func(tb *Table, from int, exp int64) {
		for i := 0; i < rowChunkSize; i++ {
			tb.Set(ident.NodeID(from+i), rvp, exp)
		}
	}
	setRange(a, 100, forever)
	setRange(b, 100, forever)
	now := int64(1)
	setRange(a, 200, now)
	move := func(from, to *Table) {
		now++
		from.Purge(now)
		setRange(to, 200, now)
	}
	allocs := testing.AllocsPerRun(100, func() {
		move(a, b)
		move(b, a)
	})
	if allocs != 0 {
		t.Errorf("a chunk moving between two tables of one store allocates %.1f times per round trip, want 0", allocs)
	}
	if a.Len() != 2*rowChunkSize || b.Len() != rowChunkSize {
		t.Fatalf("Len = %d, %d; want %d, %d: the tables did not cross a chunk boundary", a.Len(), b.Len(), 2*rowChunkSize, rowChunkSize)
	}
	if chunks := len(a.rows) + len(b.rows) + len(st.free); chunks != 3 {
		t.Errorf("the store and its tables hold %d chunks, want the 3 that ever held rows at once", chunks)
	}
}

// TestPooledStoreEquivalence drives one random workload through tables that
// share one store — one intern table and one free list of row chunks, the
// per-shard layout of the simulator — and through tables with private
// stores. Every answer and every storage order must agree: interning changes
// where descriptor bytes live and pooling which chunk a table grows into,
// never what any call returns.
func TestPooledStoreEquivalence(t *testing.T) {
	st := NewStore(&intern.Descriptors{})
	const nTables = 8
	pooled := make([]*Table, nTables)
	private := make([]*Table, nTables)
	for i := range pooled {
		tb := st.MakeTable(ident.NodeID(i + 1))
		pooled[i] = &tb
		private[i] = NewShared(ident.NodeID(i+1), &intern.Descriptors{})
	}
	sameRows := func(step, i int) []row {
		t.Helper()
		p, q := dump(pooled[i]), dump(private[i])
		if len(p) != len(q) {
			t.Fatalf("step %d table %d: %d rows pooled, %d private", step, i, len(p), len(q))
		}
		for k := range p {
			if p[k] != q[k] {
				t.Fatalf("step %d table %d: row %d is %v pooled, %v private", step, i, k, p[k], q[k])
			}
		}
		return p
	}
	// RVP descriptors vary in every field the intern key covers.
	rvpFor := func(id uint64) view.Descriptor {
		return view.Descriptor{
			ID:    ident.NodeID(id),
			Addr:  ident.Endpoint{IP: ident.IP(id), Port: uint16(id % 7)},
			Class: ident.NATClass(id % 5),
			Age:   uint32(id % 3),
		}
	}
	rng := rand.New(rand.NewSource(13))
	now := int64(0)
	freed := false // whether a chunk ever waited in the store for reuse
	for step := 0; step < 100_000; step++ {
		freed = freed || len(st.free) > 0
		i := rng.Intn(nTables)
		switch op := rng.Intn(12); {
		case op < 5:
			dest := ident.NodeID(rng.Intn(300))
			rvp := rvpFor(uint64(rng.Intn(300)))
			exp := now + int64(rng.Intn(2000)-200)
			pooled[i].Set(dest, rvp, exp)
			private[i].Set(dest, rvp, exp)
		case op < 7:
			dest := ident.NodeID(rng.Intn(300))
			gp, okp := pooled[i].Next(dest, now)
			gq, okq := private[i].Next(dest, now)
			if okp != okq || gp != gq {
				t.Fatalf("step %d table %d: Next(%v) = %v,%v pooled, %v,%v private", step, i, dest, gp, okp, gq, okq)
			}
		case op < 8:
			pooled[i].Purge(now)
			private[i].Purge(now)
			if pooled[i].MinExpireBound() != private[i].MinExpireBound() {
				t.Fatalf("step %d table %d: expiry bound %d pooled, %d private", step, i, pooled[i].MinExpireBound(), private[i].MinExpireBound())
			}
		case op < 9:
			// A checkpoint round trip: each side replays its rows into a
			// fresh table of its own kind, as a restore does.
			rows := sameRows(step, i)
			tb := st.MakeTable(ident.NodeID(i + 1))
			p, q := &tb, NewShared(ident.NodeID(i+1), &intern.Descriptors{})
			for _, r := range rows {
				p.LoadRow(r.dest, r.rvp, r.expireAt)
				q.LoadRow(r.dest, r.rvp, r.expireAt)
			}
			p.RestoreMinExpire(pooled[i].MinExpireBound())
			q.RestoreMinExpire(private[i].MinExpireBound())
			pooled[i], private[i] = p, q
		case op < 10:
			sameRows(step, i)
		default:
			now += int64(rng.Intn(300))
		}
	}
	for i := range pooled {
		sameRows(-1, i)
	}
	if !freed {
		t.Error("no chunk ever went back to the store: the workload exercised no reuse")
	}
}

// checkIndex verifies the index against the rows: one cell per row, each
// cell carrying its row's fingerprint, and every row found from its home.
func checkIndex(t *testing.T, tb *Table) {
	t.Helper()
	cells := 0
	for _, c := range tb.slots {
		if c == 0 {
			continue
		}
		cells++
		row := int(c&slotRowMask) - 1
		if row < 0 || row >= tb.nrows || c&^slotRowMask != fpBits(tb.dest(row)) {
			t.Fatalf("cell %#x points at row %d of %d with a foreign fingerprint", c, row, tb.nrows)
		}
	}
	if cells != tb.nrows {
		t.Fatalf("%d index cells for %d rows", cells, tb.nrows)
	}
	for i := 0; i < tb.nrows; i++ {
		if got := tb.find(tb.dest(i)); got != i {
			t.Fatalf("find(row %d's dest) = %d", i, got)
		}
	}
}

// TestIndexAtSevenEighthsLoad holds the index to a map while a table churns
// between 192 and 224 rows in its first 256 cells — the densest load the 7/8
// bound allows, with long probe runs and backward-shift deletes inside them —
// and checks that the 225th row is what doubles the index.
func TestIndexAtSevenEighthsLoad(t *testing.T) {
	const cells, maxRows = initialSlots, initialSlots * 7 / 8
	rng := rand.New(rand.NewSource(17))
	tb := NewShared(1, &intern.Descriptors{})
	ref := map[ident.NodeID]bool{}
	var live []ident.NodeID
	add := func() {
		for {
			id := ident.NodeID(rng.Uint64() | 2)
			if !ref[id] {
				ref[id] = true
				live = append(live, id)
				tb.Set(id, d(5), 1000)
				return
			}
		}
	}
	for len(live) < maxRows {
		add()
		if len(tb.slots) != cells {
			t.Fatalf("index has %d cells at %d rows, want %d up to %d rows", len(tb.slots), len(live), cells, maxRows)
		}
	}
	checkIndex(t, tb)
	for step := 0; step < 50_000; step++ {
		if len(live) < maxRows && (len(live) < maxRows-32 || rng.Intn(2) == 0) {
			add()
		} else {
			// Next on an expired row removes exactly that row.
			k := rng.Intn(len(live))
			if _, ok := tb.Next(live[k], 2000); ok {
				t.Fatalf("step %d: expired route %v reported live", step, live[k])
			}
			delete(ref, live[k])
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		if len(tb.slots) != cells || tb.Len() != len(ref) {
			t.Fatalf("step %d: %d cells, %d rows; want %d cells, %d rows", step, len(tb.slots), tb.Len(), cells, len(ref))
		}
		probe := ident.NodeID(rng.Uint64() | 2)
		if _, ok := tb.Get(probe, 0); ok != ref[probe] {
			t.Fatalf("step %d: Get(%v) = %v, map says %v", step, probe, ok, ref[probe])
		}
		if _, ok := tb.Get(live[rng.Intn(len(live))], 0); !ok {
			t.Fatalf("step %d: a live route is missing", step)
		}
		if step%1000 == 0 {
			checkIndex(t, tb)
		}
	}
	for len(live) < maxRows {
		add()
	}
	if len(tb.slots) != cells {
		t.Fatalf("index has %d cells at %d rows, want %d", len(tb.slots), len(live), cells)
	}
	add()
	if len(tb.slots) != 2*cells {
		t.Fatalf("index has %d cells at %d rows, want %d", len(tb.slots), len(live), 2*cells)
	}
	checkIndex(t, tb)
}

// findSink keeps BenchmarkFind's probes from being optimised away.
var findSink int

// BenchmarkFind times one index probe in a 200-row table, the upper end of
// the steady state, for destinations the table holds and for ones it does
// not.
func BenchmarkFind(b *testing.B) {
	const rows = 200
	rng := rand.New(rand.NewSource(19))
	tb := NewShared(1, &intern.Descriptors{})
	ids := make([]ident.NodeID, 2*rows)
	for i, v := range rng.Perm(100_000)[:len(ids)] {
		ids[i] = ident.NodeID(v + 2)
	}
	hits, misses := ids[:rows], ids[rows:]
	for _, id := range hits {
		tb.Set(id, d(5), 1000)
	}
	for _, c := range []struct {
		name string
		ids  []ident.NodeID
	}{{"hit", hits}, {"miss", misses}} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				findSink += tb.find(c.ids[i%rows])
			}
		})
	}
}
