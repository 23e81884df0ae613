// Command sweepd serves a persistent campaign result store over HTTP:
// many clients can list stored scenarios, fetch results by config
// hash, and trigger grid expansions whose cold cells are simulated on
// a bounded worker pool and written through to the store.
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
//	GET  /v1/scenarios
//	GET  /v1/results/{id}
//	POST /v1/expand
//	GET  /v1/sync
//	POST /v1/admin/compact
//
// Daemons replicate from each other: -sync-from points at peer
// sweepd base URLs and this daemon pulls their missing records every
// -sync-every via GET /v1/sync, converging to the peers' result sets
// with no shared filesystem. Mixed-physics peers are refused on both
// ends. POST /v1/admin/compact merges the store's segments into one
// deduplicated, index-sidecar'd segment while the daemon runs.
//
// Expand requests are cancellation-correct: a client that disconnects
// mid-expand stops the server scheduling that grid's remaining cold
// cells and releases its simulation slots immediately, and
// -expand-timeout (0 = off) bounds each request server-side.
//
// The request form of POST /v1/expand fixes its response: a grid
// answers the campaign JSON cmd/sweep writes, with completion and
// durability status in headers; an explicit scenario-key list answers
// NDJSON frames, each cell's result the moment it finalizes, closed by
// a summary line carrying that status.
//
// The daemon is also a fleet worker: the explicit form carries cells
// this store has never seen, and /v1/healthz advertises the simulation
// capacity (-workers), in-flight expand count, per-request cell cap
// (-max-cells) and physics version that cmd/sweep's dispatch backend
// shards by. Point cmd/sweep -workers at a set of sweepd addresses to
// run distributed campaigns.
//
// Shutdown is graceful: on SIGINT/SIGTERM the daemon stops accepting
// connections, drains in-flight requests (up to -drain-timeout), then
// cancels whatever is still simulating, and finally syncs and closes
// the store so every completed result is durable. A second signal
// skips the drain and aborts in-flight expands at once.
//
// The store directory is shared with cmd/sweep -store: campaigns run
// offline become servable immediately, and expansions triggered over
// HTTP warm the store for later CLI runs.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"cloversim"
	"cloversim/internal/store"
	"cloversim/internal/sweepd"
)

func main() {
	var (
		storeDir      = flag.String("store", "", "persistent result store directory (required)")
		addr          = flag.String("addr", ":8075", "HTTP listen address")
		workers       = flag.Int("workers", 0, "max concurrent cold-cell simulations across all requests (0 = GOMAXPROCS)")
		expandTimeout = flag.Duration("expand-timeout", 0, "per-request deadline for POST /v1/expand (0 = no server-side deadline)")
		drainTimeout  = flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight requests before aborting them")
		maxCells      = flag.Int("max-cells", sweepd.DefaultMaxCells, "largest cell count one POST /v1/expand may carry; advertised in /v1/healthz so dispatchers clamp chunk sizes")
		syncFrom      = flag.String("sync-from", "", "comma-separated peer sweepd base URLs to replicate from via GET /v1/sync (converges this store to the peers' result sets)")
		syncEvery     = flag.Duration("sync-every", 30*time.Second, "interval between replication pulls when -sync-from is set")
	)
	flag.Parse()
	if *storeDir == "" {
		fatal(errors.New("-store is required"))
	}
	st, err := store.Open(*storeDir, cloversim.PhysicsVersion)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "sweepd: store %s: %s (physics %s)\n", *storeDir, st.Stats(), st.Physics())

	server := sweepd.New(st, cloversim.RunScenarioContext, *workers)
	server.ExpandTimeout = *expandTimeout
	server.MaxCells = *maxCells

	// Every request context descends from baseCtx, so cancelling it
	// aborts in-flight expands: their engines stop scheduling cold
	// cells and the handlers return with partial campaigns. The
	// replication pullers share it, so shutdown stops them too before
	// the store closes.
	baseCtx, abortInflight := context.WithCancel(context.Background())
	defer abortInflight()
	if *syncFrom != "" {
		for _, peer := range strings.Split(*syncFrom, ",") {
			peer = strings.TrimSpace(peer)
			if peer == "" {
				continue
			}
			client := sweepd.NewClient(peer)
			client.Physics = st.Physics() // refuse mixed-physics peers
			p := &sweepd.Puller{Client: client, Store: st}
			fmt.Fprintf(os.Stderr, "sweepd: replicating from %s every %s\n", client.BaseURL, *syncEvery)
			go p.Run(baseCtx, *syncEvery)
		}
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           server.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		BaseContext:       func(net.Listener) context.Context { return baseCtx },
	}
	go func() {
		fmt.Fprintf(os.Stderr, "sweepd: listening on %s\n", *addr)
		if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
	}()

	stop := make(chan os.Signal, 2)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	fmt.Fprintln(os.Stderr, "sweepd: shutting down: draining in-flight requests (signal again to abort them)")
	go func() {
		<-stop
		fmt.Fprintln(os.Stderr, "sweepd: aborting in-flight expands")
		abortInflight()
	}()
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		// The drain window closed with requests still running: cancel
		// their contexts so the engines stop scheduling, then force the
		// connections closed. Completed cells are already in the store.
		fmt.Fprintf(os.Stderr, "sweepd: drain incomplete (%v); aborting in-flight expands\n", err)
		abortInflight()
		srv.Close()
	}
	// Shutdown drained (or we gave up): make everything that finished
	// durable. Close syncs the active segment before closing it.
	if err := st.Close(); err != nil {
		fatal(err)
	}
	fmt.Fprintln(os.Stderr, "sweepd: store synced and closed")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sweepd:", err)
	os.Exit(1)
}
