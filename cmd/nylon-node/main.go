// Command nylon-node runs a live Nylon peer over UDP and periodically prints
// its view — a minimal deployable peer-sampling service.
//
// Start a first (public) node:
//
//	nylon-node -id 1 -listen :9001
//
// Join from elsewhere (the bootstrap string is id@ip:port/class):
//
//	nylon-node -id 2 -listen :9002 -bootstrap 1@192.0.2.10:9001/public
//
// Natted peers pass their STUN-discovered mapping and class:
//
//	nylon-node -id 3 -listen :9003 -advertise 198.51.100.7:41002 -nat prc \
//	           -bootstrap 1@192.0.2.10:9001/public
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	nylon "repro"
	"repro/internal/cliutil"
	"repro/internal/obs"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command. Once the flags have parsed it returns the exit
// status instead of exiting, so the node and the ops endpoint close on every
// path out.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("nylon-node", flag.ExitOnError)
	var (
		id        = fs.Uint64("id", 0, "node ID (required, unique)")
		listen    = fs.String("listen", ":9000", "UDP listen address")
		advertise = fs.String("advertise", "", "advertised endpoint (default: the listen address)")
		natClass  = fs.String("nat", "public", "own NAT class: public, fc, rc, prc, sym")
		bootstrap = fs.String("bootstrap", "", "comma-separated seeds: id@ip:port/class")
		join      = fs.String("join", "", "introducer address; replaces -advertise/-nat/-bootstrap")
		period    = fs.Duration("period", 5*time.Second, "shuffling period")
		viewSize  = fs.Int("view", 15, "view size")
		report    = fs.Duration("report", 10*time.Second, "view report interval")
		httpAddr  = fs.String("http", "", "serve the live ops endpoint (/metrics, /debug/vars, /debug/pprof) on this address")
	)
	fs.Parse(args) // exits 2 on a malformed command line, before anything is open
	exit := func(status int, err error) int {
		fmt.Fprintln(stderr, "nylon-node:", err)
		return status
	}
	if *id == 0 {
		return exit(1, fmt.Errorf("-id is required"))
	}
	if *report <= 0 {
		return exit(2, fmt.Errorf("-report %v: must be positive", *report))
	}

	tr, err := nylon.ListenUDP(*listen)
	if err != nil {
		return exit(1, err)
	}
	defer tr.Close() // the node closes it too; a second Close is a no-op
	adv := tr.LocalAddr()
	if *advertise != "" {
		if adv, err = nylon.ParseEndpoint(*advertise); err != nil {
			return exit(1, err)
		}
	}
	class, err := nylon.ParseNATClass(*natClass)
	if err != nil {
		return exit(1, err)
	}
	seeds, err := parseBootstrap(*bootstrap)
	if err != nil {
		return exit(1, err)
	}
	if *join != "" {
		introducer, err := nylon.ParseEndpoint(*join)
		if err != nil {
			return exit(1, err)
		}
		res, err := nylon.Join(tr, introducer, nylon.NodeID(*id), 2*time.Second)
		if err != nil {
			return exit(1, err)
		}
		adv, class, seeds = res.Mapped, res.Class, res.Seeds
		fmt.Fprintf(stdout, "joined via %v: mapped %v, class %v, %d seeds\n", introducer, adv, class, len(seeds))
	}

	node, err := nylon.NewNode(nylon.Config{
		ID:        nylon.NodeID(*id),
		Transport: tr,
		Advertise: adv,
		NAT:       class,
		Bootstrap: seeds,
		ViewSize:  *viewSize,
		Period:    *period,
	})
	if err != nil {
		return exit(1, err)
	}
	node.Start()
	defer node.Close()
	fmt.Fprintf(stdout, "nylon-node %v listening on %v, advertising %v (%v), %d seeds\n",
		node.Self().ID, tr.LocalAddr(), adv, class, len(seeds))

	var gShuffles, gCompleted, gPunches, gView *obs.Gauge
	if *httpAddr != "" {
		hub := obs.NewHub()
		reg := hub.EnsureRegistry()
		gShuffles = reg.Gauge("nylon_node_shuffles_initiated", "shuffles this node initiated")
		gCompleted = reg.Gauge("nylon_node_shuffles_completed", "shuffles that completed")
		gPunches = reg.Gauge("nylon_node_hole_punches_completed", "NAT hole punches completed")
		gView = reg.Gauge("nylon_node_view_size", "current partial view size")
		srv, err := cliutil.ServeOps(stderr, *httpAddr, hub)
		if err != nil {
			return exit(1, err)
		}
		defer srv.Close()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	ticker := time.NewTicker(*report)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			st := node.Stats()
			v := node.View()
			if gShuffles != nil {
				gShuffles.Set(float64(st.ShufflesInitiated))
				gCompleted.Set(float64(st.ShufflesCompleted))
				gPunches.Set(float64(st.HolePunchesCompleted))
				gView.Set(float64(len(v)))
			}
			fmt.Fprintf(stdout, "[%s] shuffles=%d completed=%d punches=%d view:\n",
				time.Now().Format(time.TimeOnly), st.ShufflesInitiated, st.ShufflesCompleted, st.HolePunchesCompleted)
			for _, d := range v {
				fmt.Fprintf(stdout, "  %v\n", d)
			}
		case <-sig:
			fmt.Fprintln(stdout, "shutting down")
			return 0
		}
	}
}

// parseBootstrap parses "id@ip:port/class" entries separated by commas.
func parseBootstrap(s string) ([]nylon.Descriptor, error) {
	if s == "" {
		return nil, nil
	}
	var out []nylon.Descriptor
	for _, part := range strings.Split(s, ",") {
		at := strings.IndexByte(part, '@')
		slash := strings.LastIndexByte(part, '/')
		if at < 0 || slash < at {
			return nil, fmt.Errorf("bootstrap entry %q not of form id@ip:port/class", part)
		}
		id, err := strconv.ParseUint(part[:at], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bootstrap entry %q: bad id: %v", part, err)
		}
		ep, err := nylon.ParseEndpoint(part[at+1 : slash])
		if err != nil {
			return nil, fmt.Errorf("bootstrap entry %q: %v", part, err)
		}
		class, err := nylon.ParseNATClass(part[slash+1:])
		if err != nil {
			return nil, fmt.Errorf("bootstrap entry %q: %v", part, err)
		}
		out = append(out, nylon.Descriptor{ID: nylon.NodeID(id), Addr: ep, Class: class})
	}
	return out, nil
}
