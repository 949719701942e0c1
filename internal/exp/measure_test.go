package exp

import (
	"reflect"
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/ident"
	"repro/internal/scenario"
	"repro/internal/view"
)

// wireWorld builds cfg's world as Run does, ready to run from time zero.
func wireWorld(t testing.TB, cfg Config) *runState {
	t.Helper()
	st, err := newRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// runWorld builds cfg's world and runs it to the horizon, returning the run
// state short of the final measure — what Run does, with the world kept.
func runWorld(t testing.TB, cfg Config) *runState {
	t.Helper()
	st := wireWorld(t, cfg)
	st.kern.RunUntil(int64(st.cfg.Rounds) * st.cfg.PeriodMs)
	return st
}

// routeRow is one routing-table row as a snapshot would serialise it.
type routeRow struct {
	dest     ident.NodeID
	rvp      view.Descriptor
	expireAt int64
}

// tableState is everything of one routing table that outlives a call.
type tableState struct {
	rows      []routeRow
	len       int
	minExpire int64
}

// routingTables dumps every Nylon peer's routing table, rows in storage order.
func routingTables(st *runState) []tableState {
	var out []tableState
	for _, p := range st.net.Peers() {
		eng, ok := adversary.Unwrap(p.Engine).(*core.Nylon)
		if !ok {
			continue
		}
		t := eng.Routes()
		ts := tableState{len: t.Len(), minExpire: t.MinExpireBound()}
		t.EachRow(func(dest ident.NodeID, rvp view.Descriptor, expireAt int64) {
			ts.rows = append(ts.rows, routeRow{dest, rvp, expireAt})
		})
		out = append(out, ts)
	}
	return out
}

// TestMeasureLeavesWorldUntouched pins the measurement plane's first duty: a
// sample and a final measure read the world and leave every routing table —
// row sequence, length, expiry bound — as they found it, also when the tables
// hold expired rows nothing has purged yet. (Through rt.Table.Next, which the
// chain walk used to call, each expired row it met was deleted from its
// owner's table.)
func TestMeasureLeavesWorldUntouched(t *testing.T) {
	for _, workers := range []int{1, 4} {
		cfg := ckTestConfig(ckStorm())
		cfg.N, cfg.Workers, cfg.Shards = 700, workers, 8
		cfg.SampleEveryRounds = 0
		st := runWorld(t, cfg)
		before := routingTables(st)

		// Walk once now and once a hole timeout on, when every row the walk
		// can reach has expired and none has been purged.
		now := st.kern.Now()
		late := now + 2*st.cfg.HoleTimeoutMs
		expired := 0
		for _, ts := range before {
			for _, r := range ts.rows {
				if r.expireAt < late {
					expired++
				}
			}
		}
		if expired == 0 {
			t.Fatal("fixture holds no expired rows")
		}
		usable := len(st.walkOverlay(now, nil).edges)
		if lateUsable := len(st.walkOverlay(late, nil).edges); lateUsable >= usable {
			t.Fatalf("walking %d ms late found %d usable edges, %d on time: the expired rows were not consulted",
				late-now, lateUsable, usable)
		}
		st.measure(now, *st.warmup)

		if after := routingTables(st); !reflect.DeepEqual(before, after) {
			t.Errorf("workers=%d: measuring changed the routing tables it read", workers)
		}
	}
}

// TestSampleLeavesSameTables is the same duty seen from outside: a run
// sampled every round and a run never sampled end with identical routing
// tables in every peer, row order included — the state a snapshot taken next
// would serialise — and measure the same. The NAT rules live for four
// shuffling periods here, so that routes expire between a peer's purges all
// the time and every sample walks into some; at the paper's 90 s a 2000-peer
// storm meets one in sixty rounds.
func TestSampleLeavesSameTables(t *testing.T) {
	cfg := ckTestConfig(ckStorm())
	cfg.N, cfg.HoleTimeoutMs = 200, 20_000
	cfg.SampleEveryRounds = 0
	unsampled := runWorld(t, cfg)
	cfg.SampleEveryRounds = 1
	sampled := runWorld(t, cfg)
	if len(*sampled.series) != cfg.Rounds {
		t.Fatalf("sampled run took %d samples, want %d", len(*sampled.series), cfg.Rounds)
	}
	if !reflect.DeepEqual(routingTables(unsampled), routingTables(sampled)) {
		t.Error("sampling every round left other routing tables behind than not sampling")
	}
	end := unsampled.kern.Now()
	a, b := unsampled.measure(end, *unsampled.warmup), sampled.measure(end, *sampled.warmup)
	if !reflect.DeepEqual(normalizeResult(a), normalizeResult(b)) {
		t.Errorf("sampling every round changed what the run measures:\nunsampled: %+v\n  sampled: %+v", a, b)
	}
}

// TestMeasurePlaneInvariance pins that the chunked walk's result is a
// function of the world and never of how many goroutines walked it: Result
// and every SamplePoint are identical at workers 1, 2 and 8 — on a population
// of several chunks that is no multiple of the chunk size, with churn killing
// and joining peers on both sides of every chunk boundary, on one smaller
// than a chunk, and with a fifth of the peers lying about their views.
// The workers=1 run goes through runVerified, which cross-checks the walk at
// every sample round against the serial reference sweep.
// Run it under -race: the chunks of one walk share the world they read.
func TestMeasurePlaneInvariance(t *testing.T) {
	for _, leg := range []struct {
		name string
		n    int
		sc   *scenario.Scenario
	}{
		{"quiescent", 2*measureChunk + 77, nil},
		{"storm", 2*measureChunk + 77, ckStorm()},
		{"adversary", 2*measureChunk + 77, ckAdversarial()},
		{"storm-below-one-chunk", measureChunk - 200, ckStorm()},
	} {
		leg := leg
		t.Run(leg.name, func(t *testing.T) {
			t.Parallel()
			cfg := ckTestConfig(leg.sc)
			cfg.N, cfg.Rounds, cfg.Shards = leg.n, 24, 8
			cfg.SampleEveryRounds = 4
			cfg.Workers = 1
			want := runVerified(t, cfg)
			if len(want.Series) != 6 || want.AlivePeers == 0 {
				t.Fatalf("fixture measured nothing: %d samples, %d alive", len(want.Series), want.AlivePeers)
			}
			if leg.sc != nil && want.AlivePeers == want.TotalPeers {
				t.Fatal("fixture has no dead peers")
			}
			for _, workers := range []int{2, 8} {
				cfg.Workers = workers
				if got := runCorpus(t, cfg); !reflect.DeepEqual(want, got) {
					t.Errorf("workers=%d measured another result than workers=1:\n 1: %+v\n%2d: %+v", workers, want, workers, got)
				}
			}
		})
	}
}
