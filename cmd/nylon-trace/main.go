// Command nylon-trace queries recorded network traces: the JSON-lines files
// written by nylon-sim -trace-out and the forensic bundles frozen by the
// flight recorder (-flight). It filters by peer, op, wire kind
// and virtual-time window, reconstructs causal forwarding chains
// (-follow), and condenses a trace into per-op and per-shard drop tables
// (-summary).
//
// Examples:
//
//	nylon-sim -f storm.json -trace-out run.trace
//	nylon-trace -summary run.trace
//	nylon-trace -op drop-nat -peer n7 run.trace
//	nylon-trace -follow n3 bundles/bundle-eclipse-r0042.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/ident"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/wire"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command; it returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("nylon-trace", flag.ExitOnError)
	fs.SetOutput(stderr)
	var (
		opName  = fs.String("op", "", "keep only events of this op: send, deliver, drop-nat, drop-addr, drop-dead, drop-link, drop-partition")
		peer    = fs.String("peer", "", "keep only events whose origin or destination is this peer (e.g. n7)")
		kind    = fs.String("kind", "", "keep only this wire kind: REQUEST, RESPONSE, OPEN_HOLE, PING, PONG")
		fromMs  = fs.Int64("from", -1, "keep only events at or after this virtual time (ms)")
		toMs    = fs.Int64("to", -1, "keep only events at or before this virtual time (ms)")
		follow  = fs.String("follow", "", "reconstruct causal chains: an origin peer (n3) or one chain (n3:17); prints each chain hop by hop with its verification status")
		summary = fs.Bool("summary", false, "print per-op totals and the per-shard drop table instead of events")
		shards  = fs.Int("shards", 0, "shard count for -summary's per-shard table on raw traces (bundles carry it)")
		limit   = fs.Int("n", 0, "print at most the last N matching events (0 = all)")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: nylon-trace [flags] FILE\n\nFILE is a JSON-lines trace (-trace-out) or a flight-recorder bundle.\n\n")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if fs.NArg() != 1 {
		fs.Usage()
		return 2
	}
	fatal := func(err error) int {
		fmt.Fprintln(stderr, "nylon-trace:", err)
		return 1
	}

	events, bundle, err := load(fs.Arg(0))
	if err != nil {
		return fatal(err)
	}
	if bundle != nil {
		fmt.Fprintf(stdout, "# bundle %s: trigger %s at round %d (%s)\n",
			bundle.Schema, bundle.Trigger.Name, bundle.Trigger.Round, bundle.Trigger.Detail)
		fmt.Fprintf(stdout, "# run: %s n=%d seed=%d shards=%d workers=%d\n",
			bundle.Run.Protocol, bundle.Run.N, bundle.Run.Seed, bundle.Run.Shards, bundle.Run.Workers)
		if *shards == 0 {
			*shards = bundle.Run.Shards
		}
	}
	// The per-shard table is sized by the count: bound it as exp.Config
	// bounds a run's shards, whether it came from the flag or the file.
	if *shards < 0 || *shards > 4096 {
		return fatal(fmt.Errorf("shard count %d outside [1,4096]", *shards))
	}

	if *follow != "" {
		if err := doFollow(stdout, events, *follow); err != nil {
			return fatal(err)
		}
		return 0
	}

	events, err = filter(events, *opName, *peer, *kind, *fromMs, *toMs)
	if err != nil {
		return fatal(err)
	}
	if *summary {
		doSummary(stdout, events, *shards, bundle)
		return 0
	}
	if *limit > 0 && len(events) > *limit {
		events = events[len(events)-*limit:]
	}
	for _, e := range events {
		fmt.Fprintln(stdout, e)
	}
	return 0
}

// load reads a trace file: a flight bundle (single JSON document carrying
// the schema marker) or a raw JSON-lines event stream.
func load(path string) ([]trace.Event, *obs.Bundle, error) {
	b, bundleErr := obs.ReadBundle(path)
	if bundleErr == nil {
		return b.Trace, b, nil
	}
	if os.IsNotExist(bundleErr) {
		return nil, nil, bundleErr
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	// A document carrying the schema marker is a bundle whatever else it
	// holds: read as JSON lines, it would be one event of zeros.
	var marker struct {
		Schema *string `json:"schema"`
	}
	if json.NewDecoder(f).Decode(&marker) == nil && marker.Schema != nil {
		return nil, nil, bundleErr
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, nil, err
	}
	events, err := trace.ReadJSONL(f)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: not a flight bundle and not a JSON-lines trace: %w", path, err)
	}
	return events, nil, nil
}

func filter(events []trace.Event, opName, peer, kind string, fromMs, toMs int64) ([]trace.Event, error) {
	keepOp := trace.Op(0)
	if opName != "" {
		op, err := trace.ParseOp(opName)
		if err != nil {
			return nil, err
		}
		keepOp = op
	}
	var keepPeer ident.NodeID
	if peer != "" {
		id, err := parsePeer(peer)
		if err != nil {
			return nil, err
		}
		keepPeer = id
	}
	var keepKind uint8
	if kind != "" {
		k, err := parseKind(kind)
		if err != nil {
			return nil, err
		}
		keepKind = uint8(k)
	}
	out := events[:0:0]
	for _, e := range events {
		if keepOp != 0 && e.Op != keepOp {
			continue
		}
		if keepPeer != 0 && e.Src != keepPeer && e.Dst != keepPeer {
			continue
		}
		if keepKind != 0 && e.Kind != keepKind {
			continue
		}
		if fromMs >= 0 && e.At < fromMs {
			continue
		}
		if toMs >= 0 && e.At > toMs {
			continue
		}
		out = append(out, e)
	}
	return out, nil
}

// doFollow prints the causal chains matching spec: every chain originating
// at a peer ("n3"), or one chain ("n3:17").
func doFollow(w io.Writer, events []trace.Event, spec string) error {
	var wantSeq uint32
	peerSpec := spec
	if i := strings.LastIndexByte(spec, ':'); i > 0 {
		seq, err := strconv.ParseUint(spec[i+1:], 10, 32)
		if err != nil {
			return fmt.Errorf("bad -follow %q: %v", spec, err)
		}
		wantSeq = uint32(seq)
		peerSpec = spec[:i]
	}
	origin, err := parsePeer(peerSpec)
	if err != nil {
		return err
	}
	order, byID := trace.Chains(events)
	matched := 0
	for _, id := range order {
		if id.Origin != origin || (wantSeq != 0 && id.Seq != wantSeq) {
			continue
		}
		matched++
		chain := byID[id]
		headSurvived, verr := trace.VerifyChain(chain)
		fmt.Fprintf(w, "chain %v  path=%016x  %d events\n", id, chain[len(chain)-1].Path, len(chain))
		for _, e := range chain {
			fmt.Fprintf(w, "  %v\n", e)
		}
		switch {
		case verr != nil:
			fmt.Fprintf(w, "  !! inconsistent: %v\n", verr)
		case !headSurvived:
			fmt.Fprintf(w, "  .. truncated: origin send evicted from the ring\n")
		}
	}
	if matched == 0 {
		fmt.Fprintf(w, "no chains originating at %v in %d events\n", origin, len(events))
	}
	return nil
}

// doSummary condenses a trace: per-op totals, per-kind traffic, and the
// per-shard drop table (shard derived from the destination peer).
func doSummary(w io.Writer, events []trace.Event, shards int, bundle *obs.Bundle) {
	if len(events) == 0 {
		fmt.Fprintln(w, "no events")
		return
	}
	fmt.Fprintf(w, "%d events, virtual time %dms..%dms\n", len(events), events[0].At, events[len(events)-1].At)

	opTotals := make(map[trace.Op]int)
	kindTotals := make(map[uint8]int)
	for _, e := range events {
		opTotals[e.Op]++
		kindTotals[e.Kind]++
	}
	fmt.Fprintln(w, "\nper-op totals")
	for op := trace.OpSend; int(op) < trace.NumOps(); op++ {
		if n := opTotals[op]; n > 0 {
			fmt.Fprintf(w, "  %-15s %8d\n", op, n)
		}
	}
	fmt.Fprintln(w, "\nper-kind totals")
	kinds := make([]int, 0, len(kindTotals))
	for k := range kindTotals {
		kinds = append(kinds, int(k))
	}
	sort.Ints(kinds)
	for _, k := range kinds {
		fmt.Fprintf(w, "  %-15v %8d\n", wire.Kind(k), kindTotals[uint8(k)])
	}

	if shards > 0 {
		fmt.Fprintln(w, "\nper-shard drops (by destination shard)")
		table := make([][trace.NumDropCauses]int, shards)
		any := false
		for _, e := range events {
			if c, ok := trace.DropCauseOf(e.Op); ok && e.Dst != 0 {
				table[int(uint64(e.Dst-1)%uint64(shards))][c]++
				any = true
			}
		}
		if !any {
			fmt.Fprintln(w, "  no drops in trace")
		} else {
			fmt.Fprintf(w, "  %-7s", "shard")
			for c := 0; c < int(trace.NumDropCauses); c++ {
				fmt.Fprintf(w, " %14s", trace.DropCauses[c].OpName)
			}
			fmt.Fprintln(w)
			for i, row := range table {
				fmt.Fprintf(w, "  %-7d", i)
				for _, n := range row {
					fmt.Fprintf(w, " %14d", n)
				}
				fmt.Fprintln(w)
			}
		}
	} else {
		fmt.Fprintln(w, "\n(per-shard drop table skipped: pass -shards for raw traces)")
	}

	if bundle != nil && len(bundle.Drops) > 0 {
		fmt.Fprintln(w, "\nrun-total drop counters (bundle)")
		names := make([]string, 0, len(bundle.Drops))
		for name := range bundle.Drops {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(w, "  %-32s %8d\n", name, bundle.Drops[name])
		}
	}
}

func parsePeer(s string) (ident.NodeID, error) {
	v := strings.TrimPrefix(s, "n")
	id, err := strconv.ParseUint(v, 10, 64)
	if err != nil || id == 0 {
		return 0, fmt.Errorf("bad peer %q (want n<id>)", s)
	}
	return ident.NodeID(id), nil
}

func parseKind(s string) (wire.Kind, error) {
	for k := wire.KindRequest; k <= wire.KindPong; k++ {
		if strings.EqualFold(s, k.String()) {
			return k, nil
		}
	}
	return 0, fmt.Errorf("bad kind %q (want REQUEST, RESPONSE, OPEN_HOLE, PING or PONG)", s)
}
