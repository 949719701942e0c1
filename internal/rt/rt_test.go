package rt

import (
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/ident"
	"repro/internal/view"
)

func d(id uint64) view.Descriptor {
	return view.Descriptor{ID: ident.NodeID(id), Addr: ident.Endpoint{IP: ident.IP(id), Port: 1}}
}

func TestSetAndNext(t *testing.T) {
	tb := New(1)
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
	tb := New(1)
	tb.Set(1, d(3), 100)
	tb.Set(0, d(3), 100)
	tb.Set(5, view.Descriptor{}, 100)
	if tb.Len() != 0 {
		t.Errorf("Len = %d, want 0", tb.Len())
	}
}

func TestSetKeepsFresherRoute(t *testing.T) {
	tb := New(1)
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
	tb := New(1)
	tb.Set(5, d(3), 1000)
	// A direct hole with an earlier expiry still replaces an indirect route.
	tb.SetDirect(d(5), 500)
	if !tb.Direct(5, 0) {
		t.Error("SetDirect did not install direct route over fresher indirect one")
	}
	rvp, _ := tb.Next(5, 0)
	if rvp.ID != 5 {
		t.Errorf("Next = %v, want direct n5", rvp.ID)
	}
}

func TestDirect(t *testing.T) {
	tb := New(1)
	tb.SetDirect(d(5), 100)
	if !tb.Direct(5, 50) {
		t.Error("Direct = false for open hole")
	}
	if tb.Direct(5, 101) {
		t.Error("Direct = true after expiry")
	}
	tb.Set(6, d(3), 100)
	if tb.Direct(6, 50) {
		t.Error("Direct = true for indirect route")
	}
}

func TestTTL(t *testing.T) {
	tb := New(1)
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
	tb := New(1)
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
	tb := New(1)
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
		tb := New(1)
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
	type row struct {
		dest     ident.NodeID
		rvp      view.Descriptor
		expireAt int64
	}
	dump := func(tb *Table) (rows []row) {
		tb.EachRow(func(dest ident.NodeID, rvp view.Descriptor, expireAt int64) {
			rows = append(rows, row{dest, rvp, expireAt})
		})
		return rows
	}
	build := func() *Table {
		tb := New(1)
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
