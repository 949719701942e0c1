package probes

import (
	"math/rand"
	"time"

	"repro/internal/ident"
	"repro/internal/intern"
	"repro/internal/rt"
	"repro/internal/stats"
	"repro/internal/view"
)

const (
	// rtRows is one peer's routing table at steady state (the README's
	// "hundred-odd rows"; 64 fills exactly one row chunk).
	rtRows = 64
	// rtTables is the 10k-peer working set: one table per simulated peer.
	rtTables = 10_000
	rtExpire = 90_000
)

func rtDesc(i int) view.Descriptor {
	return view.Descriptor{
		ID:    ident.NodeID(i + 2),
		Addr:  ident.Endpoint{IP: ident.IP(0x0a000000 + uint32(i)), Port: 9000},
		Class: ident.PortRestrictedCone,
	}
}

// rtTable builds a table of rtRows routes over the shared intern table, the
// way every engine of a simulation shard does.
func rtTable(self int, in *intern.Descriptors, rng *rand.Rand) (*rt.Table, []ident.NodeID) {
	t := rt.NewShared(ident.NodeID(1_000_000+self), in)
	dests := make([]ident.NodeID, rtRows)
	for r := range dests {
		d := rtDesc(rng.Intn(rtTables))
		dests[r] = d.ID
		t.Set(d.ID, rtDesc(rng.Intn(rtTables)), rtExpire)
	}
	return t, dests
}

// rtProbe times the routing table twice: one table that stays in cache (the
// sim-storm-1k regime), and the same lookup walked over 10 000 tables in
// random order, where every access misses to DRAM (the sim-steady-10k
// regime, the README's dominant cost).
func rtProbe() ([]Metric, error) {
	rng := rand.New(rand.NewSource(1))
	in := &intern.Descriptors{}
	hot, dests := rtTable(0, in, rng)
	sink := 0
	nextHit := nsPerOp(rtRows, func() {
		for _, d := range dests {
			if _, ok := hot.Next(d, 1); ok {
				sink++
			}
		}
	})
	via := rtDesc(7)
	var expire int64 = rtExpire
	set := nsPerOp(rtRows, func() {
		expire++ // a later expiry through the same RVP: the refresh a datagram causes
		for _, d := range dests {
			hot.Set(d, via, expire)
		}
	})

	// The working set, with the bytes it keeps alive.
	type tableSet struct {
		tables []*rt.Table
		dests  [][]ident.NodeID
	}
	set10k, bytes := heapBytes(func() tableSet {
		s := tableSet{tables: make([]*rt.Table, rtTables), dests: make([][]ident.NodeID, rtTables)}
		for i := range s.tables {
			s.tables[i], s.dests[i] = rtTable(i+1, in, rng)
		}
		return s
	})
	order := rng.Perm(rtTables)
	nextCold := nsPerOp(rtTables, func() {
		for k, i := range order {
			if _, ok := set10k.tables[i].Next(set10k.dests[i][k%rtRows], 1); ok {
				sink++
			}
		}
	})
	if sink < 0 {
		panic("unreachable")
	}
	rows := 0
	for _, t := range set10k.tables {
		rows += t.Len()
	}

	return []Metric{
		ns("rt.next_hit_ns", nextHit),
		ns("rt.set_ns", set),
		ns("rt.purge_ns_per_row", rtPurge(in)),
		ns("rt.next_cold_ns", nextCold),
		bytesOf("rt.bytes_per_row", bytes/float64(rows)),
	}, nil
}

// rtPurge times Purge over tables whose every row has expired, per row
// removed. Purge consumes its input, so each batch purges fresh tables.
func rtPurge(in *intern.Descriptors) float64 {
	const tables = 128
	rng := rand.New(rand.NewSource(2))
	samples := make([]float64, batches)
	for b := range samples {
		ts := make([]*rt.Table, tables)
		rows := 0
		for i := range ts {
			ts[i], _ = rtTable(i+1, in, rng)
			rows += ts[i].Len()
		}
		start := time.Now()
		for _, t := range ts {
			t.Purge(2 * rtExpire)
		}
		samples[b] = float64(time.Since(start).Nanoseconds()) / float64(rows)
	}
	return stats.Quantile(samples, 0.5)
}
