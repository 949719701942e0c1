// Command nylon-introducer runs the bootstrap service live nodes join
// through: it tells joiners their public mapping and NAT class (STUN-style
// probes), hands them seed peers, and coordinates the first hole punches.
//
//	nylon-introducer -listen :3478 -alt-port :3479
//
// Full NAT classification additionally needs a second IP:
//
//	nylon-introducer -listen 192.0.2.10:3478 -alt-port 192.0.2.10:3479 \
//	                 -alt-ip 192.0.2.11:3478
//
// Then join from a node:
//
//	nylon-node -id 7 -listen :9000 -join 192.0.2.10:3478
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	nylon "repro"
	"repro/internal/boot"
	"repro/internal/cliutil"
	"repro/internal/obs"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command. Once the flags have parsed it returns the exit
// status instead of exiting, so the sockets and the ops endpoint close on
// every path out.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("nylon-introducer", flag.ExitOnError)
	var (
		listen   = fs.String("listen", ":3478", "primary UDP listen address")
		altPort  = fs.String("alt-port", "", "alternate-port UDP address (same IP; enables RC/PRC discrimination)")
		altIP    = fs.String("alt-ip", "", "alternate-IP UDP address (enables FC detection)")
		seeds    = fs.Int("seeds", 8, fmt.Sprintf("seeds handed to each joiner (1 to %d)", boot.MaxSeeds))
		ttl      = fs.Duration("member-ttl", 90*time.Second, "member seed eligibility window")
		httpAddr = fs.String("http", "", "serve the live ops endpoint (/metrics, /debug/pprof) on this address")
	)
	fs.Parse(args) // exits 2 on a malformed command line, before anything is open
	exit := func(status int, err error) int {
		fmt.Fprintln(stderr, "nylon-introducer:", err)
		return status
	}
	if *seeds < 1 || *seeds > boot.MaxSeeds {
		return exit(2, fmt.Errorf("-seeds %d: need 1 to %d, what one join response carries", *seeds, boot.MaxSeeds))
	}
	if *ttl <= 0 {
		return exit(2, fmt.Errorf("-member-ttl %v: must be positive", *ttl))
	}

	cfg := nylon.IntroducerConfig{MaxSeeds: *seeds, MemberTTL: *ttl}
	primary, err := nylon.ListenUDP(*listen)
	if err != nil {
		return exit(1, err)
	}
	defer primary.Close()
	cfg.Primary = primary
	if *altPort != "" {
		tr, err := nylon.ListenUDP(*altPort)
		if err != nil {
			return exit(1, err)
		}
		defer tr.Close()
		cfg.AltPort = tr
	}
	if *altIP != "" {
		tr, err := nylon.ListenUDP(*altIP)
		if err != nil {
			return exit(1, err)
		}
		defer tr.Close()
		cfg.AltIP = tr
	}

	in, err := nylon.NewIntroducer(cfg)
	if err != nil {
		return exit(1, err)
	}
	defer in.Close()
	fmt.Fprintf(stdout, "nylon-introducer listening on %v (alt-port %q, alt-ip %q)\n", primary.LocalAddr(), *altPort, *altIP)

	var gMembers *obs.Gauge
	if *httpAddr != "" {
		hub := obs.NewHub()
		gMembers = hub.EnsureRegistry().Gauge("nylon_introducer_members", "currently registered members")
		srv, err := cliutil.ServeOps(stderr, *httpAddr, hub)
		if err != nil {
			return exit(1, err)
		}
		defer srv.Close()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	ticker := time.NewTicker(30 * time.Second)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			m := in.Members()
			if gMembers != nil {
				gMembers.Set(float64(m))
			}
			fmt.Fprintf(stdout, "[%s] %d registered members\n", time.Now().Format(time.TimeOnly), m)
		case <-sig:
			fmt.Fprintln(stdout, "shutting down")
			return 0
		}
	}
}
