package nat

import (
	"math/rand"
	"testing"

	"repro/internal/ident"
	"repro/internal/snapshot"
)

const ttl = 90_000 // 90 s, the paper's hole timeout

var (
	priv = ident.Endpoint{IP: 0x0a000001, Port: 5000} // 10.0.0.1:5000
	rem1 = ident.Endpoint{IP: 0x01010101, Port: 7000} // 1.1.1.1:7000
	rem2 = ident.Endpoint{IP: 0x02020202, Port: 8000} // 2.2.2.2:8000
	// rem1alt shares rem1's IP but uses a different port.
	rem1alt = ident.Endpoint{IP: 0x01010101, Port: 7001}
	pubIP   = ident.IP(0x05050505)
)

func newDev(t *testing.T, c ident.NATClass) *Device {
	t.Helper()
	return NewDevice(c, pubIP, ttl)
}

func TestNewDevicePanicsOnPublic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewDevice(Public) did not panic")
		}
	}()
	NewDevice(ident.Public, pubIP, ttl)
}

func TestNewDevicePanicsOnBadTTL(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewDevice with ttl=0 did not panic")
		}
	}()
	NewDevice(ident.FullCone, pubIP, 0)
}

// TestConeMappingStable verifies that FC, RC and PRC NATs assign the same
// public endpoint to all sessions from one private endpoint (paper §2.1).
func TestConeMappingStable(t *testing.T) {
	for _, c := range []ident.NATClass{ident.FullCone, ident.RestrictedCone, ident.PortRestrictedCone} {
		d := newDev(t, c)
		p1 := d.Outbound(0, priv, rem1)
		p2 := d.Outbound(10, priv, rem2)
		if p1 != p2 {
			t.Errorf("%v: mappings differ across destinations: %v vs %v", c, p1, p2)
		}
		if p1.IP != pubIP {
			t.Errorf("%v: mapping uses IP %v, want %v", c, p1.IP, pubIP)
		}
	}
}

// TestSymmetricMappingPerDestination verifies that a symmetric NAT assigns a
// distinct port per destination but keeps the same public IP (paper §2.1).
func TestSymmetricMappingPerDestination(t *testing.T) {
	d := newDev(t, ident.Symmetric)
	p1 := d.Outbound(0, priv, rem1)
	p2 := d.Outbound(0, priv, rem2)
	if p1 == p2 {
		t.Fatalf("symmetric NAT reused mapping %v for two destinations", p1)
	}
	if p1.IP != p2.IP || p1.IP != pubIP {
		t.Errorf("symmetric NAT changed public IP: %v, %v", p1, p2)
	}
	// Same destination again: mapping must be stable.
	if p3 := d.Outbound(5, priv, rem1); p3 != p1 {
		t.Errorf("mapping toward same destination changed: %v vs %v", p3, p1)
	}
}

func TestFullConeAcceptsAnyoneAfterOutbound(t *testing.T) {
	d := newDev(t, ident.FullCone)
	pub := d.Outbound(0, priv, rem1)
	// A peer never contacted may send in.
	got, ok := d.Inbound(100, rem2, pub)
	if !ok || got != priv {
		t.Fatalf("full cone rejected unsolicited inbound: ok=%v got=%v", ok, got)
	}
}

func TestRestrictedConeFiltersByIP(t *testing.T) {
	d := newDev(t, ident.RestrictedCone)
	pub := d.Outbound(0, priv, rem1)
	if _, ok := d.Inbound(1, rem2, pub); ok {
		t.Error("RC admitted packet from uncontacted IP")
	}
	// Same IP, different port: RC filters by IP only, so this is admitted.
	if _, ok := d.Inbound(1, rem1alt, pub); !ok {
		t.Error("RC rejected packet from contacted IP on a different port")
	}
	if got, ok := d.Inbound(1, rem1, pub); !ok || got != priv {
		t.Errorf("RC rejected contacted peer: ok=%v got=%v", ok, got)
	}
}

func TestPortRestrictedConeFiltersByIPAndPort(t *testing.T) {
	d := newDev(t, ident.PortRestrictedCone)
	pub := d.Outbound(0, priv, rem1)
	if _, ok := d.Inbound(1, rem1alt, pub); ok {
		t.Error("PRC admitted packet from contacted IP but different port")
	}
	if _, ok := d.Inbound(1, rem1, pub); !ok {
		t.Error("PRC rejected exactly-contacted peer")
	}
}

func TestSymmetricFiltersPerSession(t *testing.T) {
	d := newDev(t, ident.Symmetric)
	pub1 := d.Outbound(0, priv, rem1)
	pub2 := d.Outbound(0, priv, rem2)
	// rem2 may not reach the mapping opened toward rem1.
	if _, ok := d.Inbound(1, rem2, pub1); ok {
		t.Error("SYM admitted cross-session inbound")
	}
	if _, ok := d.Inbound(1, rem1, pub1); !ok {
		t.Error("SYM rejected the session peer")
	}
	if _, ok := d.Inbound(1, rem2, pub2); !ok {
		t.Error("SYM rejected the session peer on its own mapping")
	}
}

func TestRuleExpiry(t *testing.T) {
	for _, c := range []ident.NATClass{ident.FullCone, ident.RestrictedCone, ident.PortRestrictedCone, ident.Symmetric} {
		d := newDev(t, c)
		pub := d.Outbound(0, priv, rem1)
		if _, ok := d.Inbound(ttl, rem1, pub); !ok {
			t.Errorf("%v: rule dead at exactly ttl", c)
		}
		d2 := newDev(t, c)
		pub2 := d2.Outbound(0, priv, rem1)
		if _, ok := d2.Inbound(ttl+1, rem1, pub2); ok {
			t.Errorf("%v: rule alive after ttl elapsed", c)
		}
	}
}

// TestInboundRefreshesSession checks that receiving traffic keeps the session
// alive, per the paper: the rule is valid a limited time after the last
// message sent or received.
func TestInboundRefreshesSession(t *testing.T) {
	d := newDev(t, ident.PortRestrictedCone)
	pub := d.Outbound(0, priv, rem1)
	if _, ok := d.Inbound(ttl-1, rem1, pub); !ok {
		t.Fatal("inbound within ttl rejected")
	}
	// The inbound at ttl-1 must have refreshed the session.
	if _, ok := d.Inbound(2*ttl-2, rem1, pub); !ok {
		t.Error("session not refreshed by inbound traffic")
	}
}

func TestOutboundRefreshesMapping(t *testing.T) {
	d := newDev(t, ident.PortRestrictedCone)
	pub := d.Outbound(0, priv, rem1)
	d.Outbound(ttl-1, priv, rem2) // same session, refreshes lastUse
	if got := d.Outbound(2*ttl-2, priv, rem1); got != pub {
		t.Errorf("mapping changed despite continuous activity: %v vs %v", got, pub)
	}
}

func TestExpiredMappingReallocated(t *testing.T) {
	d := newDev(t, ident.PortRestrictedCone)
	pub := d.Outbound(0, priv, rem1)
	got := d.Outbound(ttl+1, priv, rem1)
	if got == pub {
		t.Errorf("expired mapping was reused: %v", got)
	}
}

func TestWouldAdmitDoesNotMutate(t *testing.T) {
	d := newDev(t, ident.PortRestrictedCone)
	pub := d.Outbound(0, priv, rem1)
	if !d.WouldAdmit(1, rem1, pub) {
		t.Fatal("WouldAdmit rejected admitted peer")
	}
	if d.WouldAdmit(1, rem2, pub) {
		t.Fatal("WouldAdmit admitted stranger")
	}
	// WouldAdmit at ttl-1 must not refresh: session dies at ttl+1.
	if !d.WouldAdmit(ttl-1, rem1, pub) {
		t.Fatal("WouldAdmit rejected within ttl")
	}
	if d.WouldAdmit(ttl+1, rem1, pub) {
		t.Error("WouldAdmit refreshed the session")
	}
}

func TestPublicMapping(t *testing.T) {
	d := newDev(t, ident.Symmetric)
	if _, ok := d.PublicMapping(0, priv, rem1); ok {
		t.Error("PublicMapping invented a session")
	}
	pub := d.Outbound(0, priv, rem1)
	got, ok := d.PublicMapping(1, priv, rem1)
	if !ok || got != pub {
		t.Errorf("PublicMapping = %v, %v; want %v, true", got, ok, pub)
	}
	if _, ok := d.PublicMapping(ttl+1, priv, rem1); ok {
		t.Error("PublicMapping returned expired session")
	}
}

// TestGCDropsExpiredSessions pins that GC removes expired sessions from the
// table itself, not merely from view: lookups skip expired sessions on their
// own.
func TestGCDropsExpiredSessions(t *testing.T) {
	d := newDev(t, ident.Symmetric)
	d.Outbound(0, priv, rem1)
	d.Outbound(0, priv, rem2)
	d.GC(1)
	if got := len(d.sessions); got != 2 {
		t.Fatalf("GC before expiry left %d sessions, want 2", got)
	}
	d.GC(ttl + 1)
	if got := len(d.sessions); got != 0 {
		t.Errorf("GC after expiry left %d sessions, want 0", got)
	}
}

func TestPortAllocationSkipsTaken(t *testing.T) {
	d := newDev(t, ident.Symmetric)
	seen := make(map[ident.Endpoint]bool)
	for i := 0; i < 500; i++ {
		dst := ident.Endpoint{IP: ident.IP(0x0b000000 + uint32(i)), Port: 9000}
		pub := d.Outbound(0, priv, dst)
		if seen[pub] {
			t.Fatalf("duplicate public mapping %v", pub)
		}
		seen[pub] = true
	}
}

func TestInboundToUnknownMapping(t *testing.T) {
	d := newDev(t, ident.FullCone)
	if _, ok := d.Inbound(0, rem1, ident.Endpoint{IP: pubIP, Port: 4242}); ok {
		t.Error("inbound to never-allocated mapping admitted")
	}
}

func TestPinhole(t *testing.T) {
	d := newDev(t, ident.PortRestrictedCone)
	pub := d.Pinhole(priv)
	// Unsolicited traffic from anyone, at any time, is admitted.
	if got, ok := d.Inbound(0, rem1, pub); !ok || got != priv {
		t.Fatalf("pinhole rejected unsolicited inbound: %v, %v", got, ok)
	}
	if _, ok := d.Inbound(100*ttl, rem2, pub); !ok {
		t.Error("pinhole expired")
	}
	// Idempotent.
	if again := d.Pinhole(priv); again != pub {
		t.Errorf("second Pinhole returned %v, want %v", again, pub)
	}
	// Outbound traffic reuses the pinned mapping on cone NATs.
	if out := d.Outbound(0, priv, rem1); out != pub {
		t.Errorf("outbound used %v, want pinned %v", out, pub)
	}
	// GC never collects a pinhole.
	d.GC(100 * ttl)
	if _, ok := d.Inbound(101*ttl, rem1, pub); !ok {
		t.Error("GC collected the pinhole")
	}
}

func TestPinholeOnSymmetric(t *testing.T) {
	d := newDev(t, ident.Symmetric)
	pub := d.Pinhole(priv)
	if _, ok := d.Inbound(0, rem1, pub); !ok {
		t.Fatal("symmetric pinhole rejected inbound")
	}
	// Regular outbound still allocates per-destination mappings.
	out := d.Outbound(0, priv, rem1)
	if out == pub {
		t.Error("symmetric outbound reused the pinhole mapping")
	}
}

// TestPinholeKeepsNoRules holds a pinned session to the one wildcard rule
// Pinhole installs: it admits everyone without reading its rules, so traffic
// from and to 1 000 distinct remotes within the rule TTL must leave its
// filter table at its 4-slot floor, not one rule per remote (which the
// snapshot would also carry) — and a restore from that snapshot too.
func TestPinholeKeepsNoRules(t *testing.T) {
	for _, c := range []ident.NATClass{ident.RestrictedCone, ident.PortRestrictedCone, ident.Symmetric} {
		d := newDev(t, c)
		pub := d.Pinhole(priv)
		for i := 0; i < 1000; i++ {
			remote := ident.Endpoint{IP: ident.IP(0x02000000 + i), Port: uint16(1000 + i)}
			if _, ok := d.Inbound(int64(i), remote, pub); !ok {
				t.Fatalf("%v: pinhole rejected remote %d", c, i)
			}
			d.Outbound(int64(i), priv, remote)
		}
		var enc snapshot.Encoder
		d.State(enc.Codec())
		var restored Device
		restored.State(snapshot.NewDecoder(enc.Bytes()).Codec())
		for _, dev := range []*Device{d, &restored} {
			s := &dev.sessions[dev.sessionByPublic(pub)]
			if s.filters.used != 1 || len(s.filters.slots) != minFilterSlots {
				t.Errorf("%v: pinned session holds %d rules in %d slots, want 1 in %d", c, s.filters.used, len(s.filters.slots), minFilterSlots)
			}
		}
	}
}

// TestFilterTableBoundedByLiveRules pins the compact-on-grow behaviour: a
// session whose remotes keep changing (rules constantly expiring) must keep
// its filter table sized by the live rule count, not by the total number of
// remotes ever seen — while still admitting exactly the live remotes.
func TestFilterTableBoundedByLiveRules(t *testing.T) {
	const ttl = 1000
	d := NewDevice(ident.PortRestrictedCone, 0x01000001, ttl)
	priv := ident.Endpoint{IP: 0x0a000001, Port: 9000}
	now := int64(0)
	var pub ident.Endpoint
	for i := 0; i < 50_000; i++ {
		remote := ident.Endpoint{IP: ident.IP(0x02000000 + i), Port: 1000}
		pub = d.Outbound(now, priv, remote)
		// A rule installed just now admits its remote...
		if _, ok := d.Inbound(now, remote, pub); !ok {
			t.Fatalf("step %d: fresh rule does not admit", i)
		}
		now += 100 // ~10 live rules at any time (ttl 1000)
	}
	if slots := len(d.sessions[0].filters.slots); slots > 1024 {
		t.Errorf("filter table grew to %d slots for ~20 live rules", slots)
	}
	// Expired remotes are refused.
	old := ident.Endpoint{IP: ident.IP(0x02000000), Port: 1000}
	if d.WouldAdmit(now, old, pub) {
		t.Error("long-expired rule still admits")
	}
}

// TestSymmetricSessionSweep pins that a symmetric device contacting many
// destinations over a long run does not accumulate dead sessions — and that
// sweeping them never recycles a public port (which would change observable
// mappings).
func TestSymmetricSessionSweep(t *testing.T) {
	const ttl = 1000
	d := NewDevice(ident.Symmetric, 0x01000001, ttl)
	priv := ident.Endpoint{IP: 0x0a000001, Port: 9000}
	now := int64(0)
	seen := map[ident.Endpoint]bool{}
	for i := 0; i < 2000; i++ {
		dst := ident.Endpoint{IP: ident.IP(0x02000000 + i), Port: 1000}
		pub := d.Outbound(now, priv, dst)
		if seen[pub] {
			t.Fatalf("step %d: public endpoint %v reused", i, pub)
		}
		seen[pub] = true
		now += 200 // ~5 live sessions at any time
	}
	if sessions := len(d.sessions); sessions > 2*sweepSessions {
		t.Errorf("symmetric device holds %d sessions, want bounded near %d live", sessions, sweepSessions)
	}
	// Live sessions still resolve.
	last := ident.Endpoint{IP: ident.IP(0x02000000 + 1999), Port: 1000}
	if _, ok := d.PublicMapping(now, priv, last); !ok {
		t.Error("most recent session lost by sweep")
	}
}

// TestFilterTableMatchesReference drives filter tables and a map reference
// through random set/refresh/get calls with advancing time, sized so that
// the live rule count keeps reaching the load bound without outgrowing the
// table: inserts keep compacting it in place. Every answer must match the
// reference, and each explicit compaction must leave exactly the live rules,
// with used counting them.
func TestFilterTableMatchesReference(t *testing.T) {
	for _, floor := range []uint16{minFilterSlots, 64} {
		rng := rand.New(rand.NewSource(int64(floor)))
		f := filterTable{floor: floor}
		ref := map[uint64]int64{}
		now := int64(1)
		inPlace := 0
		for step := 0; step < 200_000; step++ {
			now += int64(rng.Intn(3))
			// Keys cluster in a small space so probe chains collide and
			// backward shifts cross the table's wrap point.
			key := uint64(rng.Intn(300))
			switch op := rng.Intn(10); {
			case op < 5:
				old, used := f.slots, f.used
				exp := now + 1 + int64(rng.Intn(2*int(floor)))
				f.set(key, exp, now)
				ref[key] = exp
				// set compacts when the insert would pass the load bound.
				if len(old) > 0 && 4*(used+1) > 3*len(old) && &old[0] == &f.slots[0] {
					inPlace++
				}
			case op < 8:
				exp := now + 1 + int64(rng.Intn(2*int(floor)))
				cur, ok := ref[key]
				want := ok && cur >= now
				if got := f.refresh(key, exp, now); got != want {
					t.Fatalf("floor %d step %d: refresh(%d) = %v, reference %v", floor, step, key, got, want)
				}
				if want {
					ref[key] = exp
				}
			case op < 9:
				got, ok := f.get(key)
				cur, refOK := ref[key]
				// The table may still hold a rule that expired and was not
				// yet compacted away; it must hold every live one.
				if ok && (!refOK || got != cur) || !ok && refOK && cur >= now {
					t.Fatalf("floor %d step %d: get(%d) = %d, %v; reference %d, %v", floor, step, key, got, ok, cur, refOK)
				}
			default:
				f.compact(now)
				for k, e := range ref {
					if e < now {
						delete(ref, k)
					}
				}
				held := 0
				for _, s := range f.slots {
					if s.expire == 0 {
						continue
					}
					held++
					if e, ok := ref[s.key]; !ok || e != s.expire {
						t.Fatalf("floor %d step %d: compacted table holds %d@%d, reference %d, %v", floor, step, s.key, s.expire, e, ok)
					}
				}
				if held != len(ref) || f.used != len(ref) {
					t.Fatalf("floor %d step %d: %d rules held, used %d, %d live", floor, step, held, f.used, len(ref))
				}
			}
		}
		if inPlace < 100 {
			t.Errorf("floor %d: only %d in-place compactions: the workload does not reach the load bound", floor, inPlace)
		}
	}
}

// TestChurningSessionAllocatesNothing pins in-place compaction on the hot
// path: a port-restricted session whose remotes keep changing at a constant
// live count fills its table to the load bound again and again, and drops
// the expired rules without a new table.
func TestChurningSessionAllocatesNothing(t *testing.T) {
	const ttl = 2000
	d := NewDevice(ident.PortRestrictedCone, pubIP, ttl)
	now := int64(0)
	remote := 0
	churn := func() {
		for i := 0; i < 100; i++ {
			remote++
			d.Outbound(now, priv, ident.Endpoint{IP: ident.IP(0x02000000 + remote), Port: 1000})
			now += 100 // ~20 live rules, against the 48 a 64-slot table holds
		}
	}
	churn()
	if allocs := testing.AllocsPerRun(100, churn); allocs != 0 {
		t.Errorf("churning session allocates %.2f times per 100 datagrams, want 0", allocs)
	}
	if n := len(d.sessions[0].filters.slots); n != 64 {
		t.Errorf("filter table holds %d slots, want the 64 floor", n)
	}
}

// TestOneRuleSessionsStaySmall pins the table size of the classes whose
// sessions hold one rule: the wildcard for full cone, the session's
// destination for symmetric. However often the rule is refreshed, in either
// direction, the table stays at the 4-slot minimum.
func TestOneRuleSessionsStaySmall(t *testing.T) {
	for _, c := range []ident.NATClass{ident.FullCone, ident.Symmetric} {
		d := newDev(t, c)
		for i := 0; i < 1000; i++ {
			now := int64(i) * 1000
			dst := []ident.Endpoint{rem1, rem2}[i%2]
			pub := d.Outbound(now, priv, dst)
			if _, ok := d.Inbound(now, dst, pub); !ok {
				t.Fatalf("%v step %d: reply refused", c, i)
			}
		}
		for i := range d.sessions {
			if n := len(d.sessions[i].filters.slots); n > minFilterSlots {
				t.Errorf("%v session %d holds %d filter slots, want at most %d", c, i, n, minFilterSlots)
			}
		}
	}
}
