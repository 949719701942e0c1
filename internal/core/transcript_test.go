package core

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/ident"
	"repro/internal/view"
	"repro/internal/wire"
)

// The transcript world: eight engines of one protocol in the paper's mix of
// classes (ids 1-2 public, the rest natted), every Send delivered to the
// engine it addresses by an in-test FIFO, every sixth datagram lost so that
// shuffles go unanswered and routes go stale. Hole lifetimes are three
// periods, so over forty periods Nylon punches, relays and forwards and ARRG
// falls back to its cache rather than everyone talking directly.
const (
	trPeers    = 8
	trPeriods  = 40
	trPeriodMs = 5000
	trLossMod  = 6
)

var trClasses = [trPeers]ident.NATClass{
	ident.Public, ident.Public,
	ident.RestrictedCone, ident.RestrictedCone, ident.RestrictedCone,
	ident.PortRestrictedCone, ident.PortRestrictedCone,
	ident.Symmetric,
}

func trDesc(id int) view.Descriptor {
	d := pubDesc(uint64(id))
	if d.Class = trClasses[id-1]; d.Class.Natted() {
		d = nattedDesc(uint64(id), d.Class)
	}
	return d
}

// trRVP is the fixed resolver of the static-RVP rows: natted peers are bound
// to the two public ones alternately.
func trRVP(id ident.NodeID) (view.Descriptor, bool) {
	if id < 1 || id > trPeers || !trClasses[id-1].Natted() {
		return view.Descriptor{}, false
	}
	return trDesc(1 + int(id)%2), true
}

var trEngines = []struct {
	name  string
	build func(Config) Engine
}{
	{"generic", func(c Config) Engine { return NewGeneric(c) }},
	{"arrg", func(c Config) Engine { return NewARRG(c, 3) }},
	{"static-rvp", func(c Config) Engine {
		rvp, _ := trRVP(c.Self.ID)
		return NewStaticRVP(c, rvp, trRVP)
	}},
	{"nylon", func(c Config) Engine { return NewNylon(c) }},
}

func hashDesc(h hash.Hash, d view.Descriptor) {
	fmt.Fprintf(h, "%d@%d:%d/%d+%d ", d.ID, d.Addr.IP, d.Addr.Port, d.Class, d.Age)
}

// trRun plays the closed world and returns the digest of everything it
// emitted plus the final views and counters, and the summed counters.
func trRun(t *testing.T, build func(Config) Engine, evict bool) (string, Stats) {
	t.Helper()
	pool := &wire.Pool{}
	engines := make([]Engine, trPeers+1)
	for id := 1; id <= trPeers; id++ {
		engines[id] = build(Config{
			Self:            trDesc(id),
			ViewSize:        4,
			Selection:       view.SelectRand,
			Merge:           view.MergeHealer,
			PushPull:        true,
			HoleTimeout:     3 * trPeriodMs,
			LatencyBound:    100,
			RNG:             rand.New(rand.NewSource(int64(id) * 1009)),
			EvictUnanswered: evict,
			Msgs:            pool,
		})
	}
	for id := 1; id <= trPeers; id++ {
		var seeds []view.Descriptor
		for k := 1; k <= 3; k++ {
			seeds = append(seeds, trDesc(1+(id-1+k*k)%trPeers))
		}
		engines[id].(interface {
			Bootstrap(int64, []view.Descriptor)
		}).Bootstrap(0, seeds)
	}

	type datagram struct {
		from ident.NodeID
		Send
	}
	h := sha256.New()
	var queue []datagram
	var seq int
	emit := func(from int, out []Send) {
		for _, s := range out {
			m := s.Msg
			fmt.Fprintf(h, "%d>%d@%d:%d k%d h%d ", from, s.ToID, s.To.IP, s.To.Port, m.Kind, m.Hops)
			hashDesc(h, m.Src)
			hashDesc(h, m.Dst)
			hashDesc(h, m.Via)
			for _, e := range m.Entries {
				hashDesc(h, e.Desc)
				fmt.Fprintf(h, "ttl%d ", e.RouteTTL)
			}
			h.Write([]byte{'\n'})
			if seq++; seq%trLossMod == 0 || s.ToID < 1 || s.ToID > trPeers {
				pool.Put(m)
				continue
			}
			queue = append(queue, datagram{ident.NodeID(from), s})
		}
	}
	for period := 0; period < trPeriods; period++ {
		now := int64(period) * trPeriodMs
		for id := 1; id <= trPeers; id++ {
			emit(id, engines[id].Tick(now+int64(id)))
		}
		now += trPeers
		for len(queue) > 0 {
			d := queue[0]
			queue = queue[1:]
			now++
			// The datagram arrives from the sender's advertised endpoint:
			// there is no NAT in this world to rewrite it.
			out := engines[d.ToID].Receive(now, engines[d.from].Self().Addr, d.Msg)
			emit(int(d.ToID), out)
			pool.Put(d.Msg)
		}
	}
	if bal := pool.Balance(); bal != 0 {
		t.Errorf("pool balance %d at the end of the run", bal)
	}
	var sum Stats
	for id := 1; id <= trPeers; id++ {
		e := engines[id]
		fmt.Fprintf(h, "view %d: ", id)
		for i := 0; i < e.View().Len(); i++ {
			hashDesc(h, e.View().At(i))
		}
		st := *e.Stats()
		fmt.Fprintf(h, "\nstats %d: %+v\n", id, st)
		sum.ShufflesInitiated += st.ShufflesInitiated
		sum.ShufflesCompleted += st.ShufflesCompleted
		sum.ShufflesAnswered += st.ShufflesAnswered
		sum.NoRoute += st.NoRoute
		sum.Forwarded += st.Forwarded
		sum.HolePunchesStarted += st.HolePunchesStarted
		sum.HolePunchesCompleted += st.HolePunchesCompleted
		sum.Relayed += st.Relayed
		sum.CacheFallbacks += st.CacheFallbacks
	}
	return fmt.Sprintf("%x", h.Sum(nil)), sum
}

// TestTranscriptGolden pins the four engines at the layer they live in: for
// each engine, with no-reply eviction off and on, the digest of every
// datagram the closed world emitted over forty periods (header, routing,
// every entry with its RouteTTL) and of the final views and counters equals
// testdata/transcripts.golden. A simulation digest that moves can be bisected
// to an engine here without a 10k-peer run. The engines draw from math/rand
// only, so the golden holds on any architecture. If a protocol change is
// meant to move a row, regenerate the golden from this test's output and say
// which rows moved and why.
func TestTranscriptGolden(t *testing.T) {
	var b strings.Builder
	for _, eng := range trEngines {
		for _, evict := range []bool{false, true} {
			name := fmt.Sprintf("%s/evict=%v", eng.name, evict)
			digest, sum := trRun(t, eng.build, evict)
			fmt.Fprintf(&b, "%s %s\n", name, digest)
			// The world must exercise what the row claims to pin.
			if sum.ShufflesCompleted == 0 || sum.ShufflesCompleted >= sum.ShufflesInitiated {
				t.Errorf("%s: %d of %d shuffles completed: the world neither completes nor loses any",
					name, sum.ShufflesCompleted, sum.ShufflesInitiated)
			}
			switch eng.name {
			case "arrg":
				if sum.CacheFallbacks == 0 {
					t.Errorf("%s: no cache fallback", name)
				}
			case "static-rvp", "nylon":
				if sum.HolePunchesCompleted == 0 || sum.Relayed == 0 || sum.Forwarded == 0 {
					t.Errorf("%s: punches %d, relayed %d, forwarded %d: a traversal path is not exercised",
						name, sum.HolePunchesCompleted, sum.Relayed, sum.Forwarded)
				}
			}
		}
	}
	want, err := os.ReadFile("testdata/transcripts.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("transcripts moved (see the comment on this test); now:\n%s", got)
	}
}
