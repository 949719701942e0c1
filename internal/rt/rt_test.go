package rt

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/ident"
	"repro/internal/intern"
	"repro/internal/view"
)

func d(id uint64) view.Descriptor {
	return view.Descriptor{ID: ident.NodeID(id), Addr: ident.Endpoint{IP: ident.IP(id), Port: 1}}
}

// row is one row as EachRow reports it.
type row struct {
	dest     ident.NodeID
	rvp      view.Descriptor
	expireAt int64
}

// dump returns tb's rows in storage order.
func dump(tb *Table) (rows []row) {
	tb.EachRow(func(dest ident.NodeID, rvp view.Descriptor, expireAt int64) {
		rows = append(rows, row{dest, rvp, expireAt})
	})
	return rows
}

func TestSetAndNext(t *testing.T) {
	tb := NewShared(1, &intern.Descriptors{})
	tb.Set(5, d(3), 100)
	rvp, ok := tb.Next(5, 50)
	if !ok || rvp.ID != 3 {
		t.Fatalf("Next = %v, %v; want RVP n3", rvp, ok)
	}
	// Live through the expiry instant.
	if _, ok := tb.Next(5, 100); !ok {
		t.Error("route dead at exactly ExpireAt")
	}
	if _, ok := tb.Next(5, 101); ok {
		t.Error("route alive past ExpireAt")
	}
	// Expired lookup purged the entry.
	if tb.Len() != 0 {
		t.Errorf("Len = %d after expiry, want 0", tb.Len())
	}
}

func TestSetIgnoresSelfAndNil(t *testing.T) {
	tb := NewShared(1, &intern.Descriptors{})
	tb.Set(1, d(3), 100)
	tb.Set(0, d(3), 100)
	tb.Set(5, view.Descriptor{}, 100)
	if tb.Len() != 0 {
		t.Errorf("Len = %d, want 0", tb.Len())
	}
}

func TestSetKeepsFresherRoute(t *testing.T) {
	tb := NewShared(1, &intern.Descriptors{})
	tb.Set(5, d(3), 200)
	tb.Set(5, d(4), 100) // staler: ignored
	rvp, _ := tb.Next(5, 0)
	if rvp.ID != 3 {
		t.Errorf("stale Set overwrote fresher route: RVP = %v", rvp.ID)
	}
	tb.Set(5, d(4), 300) // fresher: replaces
	rvp, _ = tb.Next(5, 0)
	if rvp.ID != 4 {
		t.Errorf("fresher Set did not replace: RVP = %v", rvp.ID)
	}
}

func TestDirectRoutePreferred(t *testing.T) {
	tb := NewShared(1, &intern.Descriptors{})
	tb.Set(5, d(3), 1000)
	// A direct hole with an earlier expiry still replaces an indirect route.
	tb.SetDirect(d(5), 500)
	if e, ok := tb.Get(5, 0); !ok || e.RVP.ID != 5 || e.ExpireAt != 500 {
		t.Errorf("Get = %v, %v; SetDirect did not install direct route over fresher indirect one", e, ok)
	}
}

func TestDirect(t *testing.T) {
	tb := NewShared(1, &intern.Descriptors{})
	tb.SetDirect(d(5), 100)
	if rvp, ok := tb.Next(5, 50); !ok || rvp.ID != 5 {
		t.Errorf("Next = %v, %v for open hole, want n5", rvp.ID, ok)
	}
	if _, ok := tb.Next(5, 101); ok {
		t.Error("open hole still routed after expiry")
	}
	tb.Set(6, d(3), 100)
	if rvp, ok := tb.Next(6, 50); !ok || rvp.ID != 3 {
		t.Errorf("Next = %v, %v for indirect route, want RVP n3", rvp.ID, ok)
	}
}

func TestTTL(t *testing.T) {
	tb := NewShared(1, &intern.Descriptors{})
	tb.Set(5, d(3), 150)
	if got := tb.TTL(5, 50); got != 100 {
		t.Errorf("TTL = %d, want 100", got)
	}
	if got := tb.TTL(5, 200); got != 0 {
		t.Errorf("TTL after expiry = %d, want 0", got)
	}
	if got := tb.TTL(99, 0); got != 0 {
		t.Errorf("TTL of unknown dest = %d, want 0", got)
	}
}

func TestPurge(t *testing.T) {
	tb := NewShared(1, &intern.Descriptors{})
	tb.Set(5, d(3), 100)
	tb.Set(6, d(3), 300)
	tb.Purge(200)
	if tb.Len() != 1 {
		t.Errorf("Len after purge = %d, want 1", tb.Len())
	}
	if _, ok := tb.Get(6, 200); !ok {
		t.Error("live entry purged")
	}
}

func TestString(t *testing.T) {
	tb := NewShared(1, &intern.Descriptors{})
	tb.Set(5, d(3), 100)
	if tb.String() == "" {
		t.Error("String() empty")
	}
}

// TestTTLNeverNegative is a property test: TTL is always >= 0 and an entry is
// routable iff its TTL is positive-or-zero at a time not later than expiry.
func TestTTLNeverNegative(t *testing.T) {
	f := func(expireRaw uint32, nowRaw uint32) bool {
		expire, now := int64(expireRaw), int64(nowRaw)
		tb := NewShared(1, &intern.Descriptors{})
		tb.Set(5, d(3), expire)
		ttl := tb.TTL(5, now)
		if ttl < 0 {
			return false
		}
		_, routable := tb.Next(5, now)
		// Entries to self are refused, so presence implies consistency.
		return routable == (expire >= now && tb.Len() >= 0 && ttl == expire-now) || (!routable && ttl == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestPeekIsAPureRead pins Peek against Next: the same answer for live,
// expired and absent routes, with the table — rows in storage order, length,
// expiry bound, find memo — left as it was, where Next deletes the expired
// row it meets; and safe to call from many goroutines at once (run under
// -race), which a find-memo write would not be.
func TestPeekIsAPureRead(t *testing.T) {
	build := func() *Table {
		tb := NewShared(1, &intern.Descriptors{})
		for id := uint64(2); id < 40; id++ {
			tb.Set(ident.NodeID(id), d(id+100), int64(id)*10) // expires at 20..390
		}
		return tb
	}
	const now = 200 // routes 2..19 have expired, 20..39 live
	peeked, nexted := build(), build()
	before := dump(peeked)
	for id := ident.NodeID(1); id < 45; id++ {
		got, ok := peeked.Peek(id, now)
		want, wantOK := nexted.Next(id, now)
		if got != want || ok != wantOK {
			t.Fatalf("Peek(%d) = %v, %v; Next = %v, %v", id, got, ok, want, wantOK)
		}
	}
	if after := dump(peeked); len(after) != len(before) || peeked.Len() != 38 {
		t.Fatalf("Peek changed the row count: %d rows, Len %d, were %d", len(after), peeked.Len(), len(before))
	} else {
		for i := range before {
			if before[i] != after[i] {
				t.Fatalf("Peek moved row %d: %v, was %v", i, after[i], before[i])
			}
		}
	}
	if peeked.MinExpireBound() != 20 {
		t.Errorf("Peek touched the expiry bound: %d, was 20", peeked.MinExpireBound())
	}
	if nexted.Len() != 20 {
		t.Fatalf("Next left %d rows, want the 20 live ones: the comparison above compared nothing", nexted.Len())
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for id := ident.NodeID(1); id < 45; id++ {
				if _, ok := peeked.Peek(id, now); ok != (id >= 20 && id < 40) {
					t.Errorf("concurrent Peek(%d) = %v", id, ok)
				}
			}
		}()
	}
	wg.Wait()
}

// TestRowPacked pins the row layout: the 64-bit fields stored as 32-bit
// halves leave no padding, and a chunk of 32 rows fills its allocator size
// class exactly. A field change that brings the padding back fails here.
func TestRowPacked(t *testing.T) {
	if got := unsafe.Sizeof(rtRow{}); got != 20 {
		t.Errorf("rtRow is %d bytes, want 20", got)
	}
	if got := unsafe.Sizeof(rowChunk{}); got != 640 {
		t.Errorf("rowChunk is %d bytes, want 640", got)
	}
}

// TestExtremeValuesRoundTrip carries destinations and expiries whose high
// halves are set, or whose sign bit is, through every accessor and through
// an EachRow/LoadRow copy: splitting a field into halves must lose no bit.
func TestExtremeValuesRoundTrip(t *testing.T) {
	dests := []ident.NodeID{1<<63 | 1, math.MaxUint64}
	expiries := []int64{math.MaxInt64, -1, math.MinInt64 + 1}
	check := func(tb *Table, dest ident.NodeID, rvp view.Descriptor, e int64) {
		t.Helper()
		if got, ok := tb.Get(dest, e); !ok || got.RVP != rvp || got.ExpireAt != e {
			t.Errorf("Get(%#x) = %v, %v; want RVP %v expiring at %d", uint64(dest), got, ok, rvp.ID, e)
		}
		if got := tb.TTL(dest, e-1); got != 1 {
			t.Errorf("TTL(%#x) one before %d = %d, want 1", uint64(dest), e, got)
		}
	}
	for _, dest := range dests {
		for _, e := range expiries {
			rvp := view.Descriptor{ID: math.MaxUint64 - dest + 2, Addr: ident.Endpoint{IP: math.MaxUint32, Port: math.MaxUint16}}
			tb := NewShared(1, &intern.Descriptors{})
			tb.Set(2, d(2), 0) // a neighbour row, so the copy keeps an order
			tb.Set(dest, rvp, e)
			check(tb, dest, rvp, e)
			rows := dump(tb)
			if len(rows) != 2 || rows[1] != (row{dest, rvp, e}) {
				t.Fatalf("EachRow = %v, want the row {%#x %v %d} second", rows, uint64(dest), rvp.ID, e)
			}
			cp := NewShared(1, &intern.Descriptors{})
			for _, r := range rows {
				cp.LoadRow(r.dest, r.rvp, r.expireAt)
			}
			check(cp, dest, rvp, e)
			if got := dump(cp); len(got) != len(rows) || got[0] != rows[0] || got[1] != rows[1] {
				t.Errorf("LoadRow copy reads %v, want %v", got, rows)
			}
		}
	}
}
