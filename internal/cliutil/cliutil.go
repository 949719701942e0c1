// Package cliutil holds the plumbing the nylon commands share: the ops
// endpoint's start, and one context-cancellation path that both operator
// signals (SIGINT/SIGTERM) and programmatic stop conditions feed, so "wind
// down cleanly" means the same thing everywhere — a simulation checkpoints at
// its next round barrier, a sweep stops dequeuing jobs and lets the in-flight
// ones checkpoint.
package cliutil

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/obs"
)

// FirstSet returns the first of the named flags that was set on fs's command
// line, or "" when none was: how a command rejects flags that contradict
// another (an experiment parameter beside -resume, whose snapshot fixes it)
// loudly instead of ignoring them.
func FirstSet(fs *flag.FlagSet, names ...string) string {
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	for _, n := range names {
		if set[n] {
			return n
		}
	}
	return ""
}

// ServeOps starts the hub's ops endpoint on addr and announces the bound
// address on w as "ops endpoint listening on http://ADDR", the line
// scripts/ops_smoke.sh waits for.
func ServeOps(w io.Writer, addr string, hub *obs.Hub) (*obs.Server, error) {
	srv, err := obs.Serve(addr, hub)
	if err == nil {
		fmt.Fprintf(w, "ops endpoint listening on http://%s\n", srv.Addr)
	}
	return srv, err
}

// NotifyStop returns a context cancelled by the first SIGINT or SIGTERM, and
// a predicate suited for exp.CheckpointSpec.Stop (true once the context is
// done, whatever cancelled it). The first signal asks for a graceful exit —
// the caller is expected to checkpoint and return — and says so on w; a
// second signal exits the process immediately with the conventional 128+SIGINT
// status, for operators facing a run that cannot reach a barrier.
func NotifyStop(w io.Writer, name string) (context.Context, func() bool) {
	ctx, cancel := context.WithCancel(context.Background())
	ch := make(chan os.Signal, 2)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-ch
		fmt.Fprintf(w, "%s: %v — checkpointing at the next barrier, signal again to exit immediately\n", name, s)
		cancel()
		<-ch
		fmt.Fprintf(w, "%s: second signal, exiting without a checkpoint\n", name)
		os.Exit(130)
	}()
	return ctx, func() bool { return ctx.Err() != nil }
}
