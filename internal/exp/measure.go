package exp

import (
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/ident"
)

// This file is the measurement plane: the one walk over every alive peer's
// view that both the final measure and the periodic sampler are made of. It
// classifies each entry as usable or stale — per entry a NAT admission check
// or an RVP chain walk through other peers' routing tables, DRAM-cold at
// scale — which makes it the one O(N) pass of a run that is not simulation.
// In runs with adversaries the same pass takes the census of colluders in the
// honest views.
//
// The walk only reads (rt.Table.Peek, nat.Device.WouldAdmit, the views in
// place), and it runs at barriers or after the run, when no shard executes.
// So it is cut into chunks of measureChunk peers and the chunks are spread
// over as many goroutines as the kernel has workers; with one worker the same
// chunk loop runs inline. The chunking is fixed, never derived from the worker
// count, and a chunk's output depends on nothing but the world: what a walk
// returns is a function of the world alone.

// measureChunk is how many peer slots one chunk of the walk covers: small
// enough that a 10k-peer world balances over any worker count, large enough
// that claiming a chunk (one atomic add) costs nothing next to walking it.
const measureChunk = 512

// overlaySums are the counts and totals a walk adds up. Every one is an
// integer, so the sum over chunks equals the sum over peers exactly, whatever
// the grouping: chunking cannot move a result by a bit.
type overlaySums struct {
	entries, stale           uint64 // view entries walked, and the stale among them
	alivePublic, aliveNatted int
	// Bytes sent and received since the warmup baseline.
	bytesPublic, bytesNatted uint64
	// Engine counters, summed over alive peers.
	initiated, completed, noroute, chainHops, chainSamples uint64
	relayDenied, advDrops, hopLimitDrops                   uint64
	// The adversary census over alive honest peers, taken only in runs with
	// adversaries: how many there are, how many see a colluder, how many see
	// nothing else, and their view entries, all and colluder.
	honest, withColluder, eclipsed int
	honestEntries, colluderEntries int
}

func (s *overlaySums) add(o *overlaySums) {
	s.entries += o.entries
	s.stale += o.stale
	s.alivePublic += o.alivePublic
	s.aliveNatted += o.aliveNatted
	s.bytesPublic += o.bytesPublic
	s.bytesNatted += o.bytesNatted
	s.initiated += o.initiated
	s.completed += o.completed
	s.noroute += o.noroute
	s.chainHops += o.chainHops
	s.chainSamples += o.chainSamples
	s.relayDenied += o.relayDenied
	s.advDrops += o.advDrops
	s.hopLimitDrops += o.hopLimitDrops
	s.honest += o.honest
	s.withColluder += o.withColluder
	s.eclipsed += o.eclipsed
	s.honestEntries += o.honestEntries
	s.colluderEntries += o.colluderEntries
}

// overlayChunk is what one chunk of a walk produced: its sums and how much of
// its regions of the walk's slices it filled.
type overlayChunk struct {
	sums   overlaySums
	ids    []ident.NodeID
	edges  []graph.Edge
	natted []float64
}

// overlayWalk is one walk's result and, between walks, the run's scratch for
// the next: the slices are reused, so a periodic sample allocates only while
// the population outgrows them. ids, edges and natted are in peer order, as a
// serial walk would have appended them.
type overlayWalk struct {
	sums overlaySums
	// ids lists the alive peers, edges their usable view entries.
	ids   []ident.NodeID
	edges []graph.Edge
	// natted holds, per alive peer with a usable entry, the natted share of
	// its usable entries.
	natted []float64
	// refs[id], in runs with adversaries, counts the honest views' references
	// to peer id. The chunks add to it atomically; the sums are integers, so
	// their order cannot show.
	refs []int32

	chunks []overlayChunk
	// dense is the scratch of the cluster and in-degree maths over ids and
	// edges.
	dense graph.Dense
}

// biggestCluster returns the walk's largest-component fraction.
func (w *overlayWalk) biggestCluster(slots int) float64 {
	return w.dense.BiggestClusterFraction(slots, w.ids, w.edges)
}

// staleFraction returns the stale share of the view entries walked.
func (w *overlayWalk) staleFraction() float64 {
	if w.sums.entries == 0 {
		return 0
	}
	return float64(w.sums.stale) / float64(w.sums.entries)
}

// walkOverlay walks every alive peer's view at virtual time now. warmup holds
// the per-peer byte baseline (peers beyond it have none). The result lives in
// run-lifetime scratch: it is valid until the next walk.
func (st *runState) walkOverlay(now int64, warmup []uint64) *overlayWalk {
	w := &st.walk
	n := st.net.PeerCount()
	perChunk := measureChunk * st.cfg.ViewSize
	nChunks := (n + measureChunk - 1) / measureChunk
	if cap(w.chunks) < nChunks {
		// Sized by whole chunks, so a population growing by a join a round
		// reallocates once per measureChunk joins, not once per sample.
		w.ids = make([]ident.NodeID, nChunks*measureChunk)
		w.natted = make([]float64, nChunks*measureChunk)
		w.edges = make([]graph.Edge, nChunks*perChunk)
		w.chunks = make([]overlayChunk, nChunks)
	}
	w.ids, w.natted = w.ids[:cap(w.ids)], w.natted[:cap(w.natted)]
	w.edges, w.chunks = w.edges[:cap(w.edges)], w.chunks[:nChunks]
	if st.adv != nil {
		if cap(w.refs) <= n {
			w.refs = make([]int32, n+1)
		}
		w.refs = w.refs[:n+1]
		clear(w.refs)
	}

	st.eachChunk(nChunks, func(c int) {
		lo, hi := c*measureChunk, min((c+1)*measureChunk, n)
		ch := &w.chunks[c]
		// Each chunk appends into its own region of the shared slices, capped
		// so that it could never spill into its neighbour's.
		*ch = overlayChunk{
			ids:    w.ids[lo:lo:hi],
			natted: w.natted[lo:lo:hi],
			edges:  w.edges[c*perChunk : c*perChunk : (c+1)*perChunk],
		}
		st.walkChunk(now, warmup, lo, hi, ch)
	})

	// Close the gaps between the regions, in chunk order: peer order. Each
	// append moves a region down onto, at most, its own start.
	w.sums = overlaySums{}
	w.ids, w.edges, w.natted = w.ids[:0], w.edges[:0], w.natted[:0]
	for c := range w.chunks {
		ch := &w.chunks[c]
		w.sums.add(&ch.sums)
		w.ids = append(w.ids, ch.ids...)
		w.edges = append(w.edges, ch.edges...)
		w.natted = append(w.natted, ch.natted...)
	}
	return w
}

// eachChunk calls fn for every chunk index below n, on up to as many
// goroutines as the kernel has workers — this one included, and this one alone
// when that is one. The extra goroutines live for the call.
func (st *runState) eachChunk(n int, fn func(c int)) {
	var next atomic.Int64
	claim := func() {
		for c := int(next.Add(1)) - 1; c < n; c = int(next.Add(1)) - 1 {
			fn(c)
		}
	}
	var wg sync.WaitGroup
	for i := min(st.kern.Workers(), n) - 1; i > 0; i-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			claim()
		}()
	}
	claim()
	wg.Wait()
}

// walkChunk walks the peers in slots [lo, hi) into ch. It runs concurrently
// with the other chunks' walks and so must only read the world.
func (st *runState) walkChunk(now int64, warmup []uint64, lo, hi int, ch *overlayChunk) {
	sums := &ch.sums
	peers := st.net.Peers()
	for i := lo; i < hi; i++ {
		p := peers[i]
		if !p.Alive {
			continue
		}
		ch.ids = append(ch.ids, p.ID)
		delta := p.BytesSent + p.BytesRecv
		if i < len(warmup) {
			delta -= warmup[i]
		}
		if p.Class == ident.Public {
			sums.alivePublic++
			sums.bytesPublic += delta
		} else {
			sums.aliveNatted++
			sums.bytesNatted += delta
		}

		s := p.Engine.Stats()
		sums.initiated += s.ShufflesInitiated
		sums.completed += s.ShufflesCompleted
		sums.noroute += s.NoRoute
		sums.chainHops += s.ChainHopsTotal
		sums.chainSamples += s.ChainSamples
		sums.relayDenied += s.RelayDenied
		sums.advDrops += s.AdversaryDrops
		sums.hopLimitDrops += s.HopLimitDrops

		v := p.Engine.View()
		census := st.adv != nil && !hostile(p)
		var nonStale, nonStaleNatted, colluder int
		for j, l := 0, v.Len(); j < l; j++ {
			d := v.At(j)
			if census {
				if st.adv.colluders.Contains(d.ID) {
					colluder++
				}
				// Restored views are outside input: an ID may lie past the roster.
				if id := uint64(d.ID); id < uint64(len(st.walk.refs)) {
					atomic.AddInt32(&st.walk.refs[id], 1)
				}
			}
			// Entries referencing departed peers count as stale only in
			// churn scenarios; graph edges always require life.
			if st.usableEdge(now, p, d) {
				nonStale++
				if d.Class.Natted() {
					nonStaleNatted++
				}
				ch.edges = append(ch.edges, graph.Edge{From: p.ID, To: d.ID})
			} else {
				sums.stale++
			}
		}
		sums.entries += uint64(v.Len())
		if census {
			sums.honest++
			sums.honestEntries += v.Len()
			sums.colluderEntries += colluder
			if colluder > 0 {
				sums.withColluder++
				if colluder == v.Len() {
					sums.eclipsed++
				}
			}
		}
		if nonStale > 0 {
			ch.natted = append(ch.natted, float64(nonStaleNatted)/float64(nonStale))
		}
	}
}
