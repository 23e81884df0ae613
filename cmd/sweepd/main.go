// Command sweepd is a fleet worker for cmd/sweep -workers: it runs the
// scenarios a dispatcher hands it, serving warm cells from its
// persistent result store and simulating cold ones on a bounded worker
// pool, written through to the store.
//
// Usage:
//
//	sweepd -store results/store            # serve on :8075
//	sweepd -store results/store -addr :9000 -workers 8
//	sweepd -store results/store -expand-timeout 2m
//
// Endpoints (see internal/sweepd for the JSON shapes):
//
//	GET  /v1/healthz
//	POST /v1/expand
//	POST /v1/admin/compact
//
// POST /v1/expand takes {"scenarios": [<canonical key>, ...]} and
// answers NDJSON frames, each cell's result the moment it finalizes,
// closed by a summary line carrying completion and durability status.
// /v1/healthz advertises the simulation capacity (-workers), in-flight
// expand count, per-request cell cap (-max-cells) and physics version
// that cmd/sweep's dispatch backend shards by. POST /v1/admin/compact
// merges the store's segments into one deduplicated segment while the
// daemon runs.
//
// Expand requests are cancellation-correct: a client that disconnects
// mid-expand stops the server scheduling that request's remaining cold
// cells and releases its simulation slots immediately, and
// -expand-timeout (0 = off) bounds each request server-side.
//
// Shutdown is graceful: on SIGINT/SIGTERM the daemon stops accepting
// connections, drains in-flight requests (up to -drain-timeout), then
// cancels whatever is still simulating, and finally syncs and closes
// the store so every completed result is durable. A second signal
// skips the drain and aborts in-flight expands at once.
//
// The store directory is shared with cmd/sweep -store: campaigns run
// offline warm the worker, and the cells it simulates warm later CLI
// runs over the same directory, which is also how to read its results.
//
// Exit codes: 0 after a clean shutdown, 1 on a runtime failure (the
// address cannot be bound, the store cannot be opened, serving fails,
// the final sync fails), 2 on a usage error. A missing -store, a
// negative -workers, -expand-timeout or -drain-timeout, and a
// -max-cells below 1 are usage errors, reported before the store
// opens. The address is bound before the store opens too, so a bad or
// taken -addr leaves no store directory behind.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cloversim"
	"cloversim/internal/store"
	"cloversim/internal/sweepd"
)

func main() { os.Exit(run(os.Args[1:], os.Stderr)) }

// run checks the flags and binds the address before the store opens:
// a bad value exits 2 and an address it cannot bind exits 1, each with
// a message and no store left behind. Runtime failures exit 1.
func run(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("sweepd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		storeDir      = fs.String("store", "", "persistent result store directory (required)")
		addr          = fs.String("addr", ":8075", "HTTP listen address")
		workers       = fs.Int("workers", 0, "max concurrent cold-cell simulations across all requests (0 = GOMAXPROCS)")
		expandTimeout = fs.Duration("expand-timeout", 0, "per-request deadline for POST /v1/expand (0 = no server-side deadline)")
		drainTimeout  = fs.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight requests before aborting them")
		maxCells      = fs.Int("max-cells", sweepd.DefaultMaxCells, "largest cell count one POST /v1/expand may carry; advertised in /v1/healthz so dispatchers clamp chunk sizes")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	var usage error
	switch {
	case *storeDir == "":
		usage = errors.New("-store is required")
	case *workers < 0:
		usage = fmt.Errorf("bad -workers %d: want 0 (GOMAXPROCS) or more", *workers)
	case *maxCells < 1:
		usage = fmt.Errorf("bad -max-cells %d: want at least 1", *maxCells)
	case *expandTimeout < 0:
		usage = fmt.Errorf("bad -expand-timeout %v: want 0 (no deadline) or more", *expandTimeout)
	case *drainTimeout < 0:
		usage = fmt.Errorf("bad -drain-timeout %v: want 0 or more", *drainTimeout)
	}
	if usage != nil {
		fmt.Fprintln(stderr, "sweepd:", usage)
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "sweepd:", err)
		return 1
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fail(err)
	}
	st, err := store.Open(*storeDir, cloversim.PhysicsVersion)
	if err != nil {
		ln.Close()
		return fail(err)
	}
	fmt.Fprintf(stderr, "sweepd: store %s: %s (physics %s)\n", *storeDir, st.Stats(), st.Physics())

	server := sweepd.New(st, cloversim.RunScenarioContext, *workers)
	server.ExpandTimeout = *expandTimeout
	server.MaxCells = *maxCells

	// Every request context descends from baseCtx, so cancelling it
	// aborts in-flight expands: their engines stop scheduling cold
	// cells and the handlers close their streams incomplete.
	baseCtx, abortInflight := context.WithCancel(context.Background())
	defer abortInflight()
	srv := &http.Server{
		Handler:           server.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		BaseContext:       func(net.Listener) context.Context { return baseCtx },
	}
	fmt.Fprintf(stderr, "sweepd: listening on %s\n", ln.Addr())
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()

	stop := make(chan os.Signal, 2)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	select {
	case <-stop:
	case err := <-served:
		// Serve returns before Shutdown only when accepting fails: stop
		// the rest and make what finished durable.
		abortInflight()
		srv.Close()
		if cerr := st.Close(); cerr != nil {
			err = errors.Join(err, cerr)
		}
		return fail(err)
	}
	fmt.Fprintln(stderr, "sweepd: shutting down: draining in-flight requests (signal again to abort them)")
	go func() {
		<-stop
		fmt.Fprintln(stderr, "sweepd: aborting in-flight expands")
		abortInflight()
	}()
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		// The drain window closed with requests still running: cancel
		// their contexts so the engines stop scheduling, then force the
		// connections closed. Completed cells are already in the store.
		fmt.Fprintf(stderr, "sweepd: drain incomplete (%v); aborting in-flight expands\n", err)
		abortInflight()
		srv.Close()
	}
	// Shutdown drained (or we gave up): make everything that finished
	// durable. Close syncs the active segment before closing it.
	if err := st.Close(); err != nil {
		return fail(err)
	}
	fmt.Fprintln(stderr, "sweepd: store synced and closed")
	return 0
}
