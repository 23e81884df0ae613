// Command sweep runs a whole-paper experiment campaign: a declarative
// parameter grid (machine preset x workload x evasion mode x ranks x
// mesh x threads) executed in parallel on the sweep engine, with
// deterministic CSV/JSON output and an ASCII summary chart.
//
// Usage:
//
//	sweep                                  # full campaign: machines x workloads x modes
//	sweep -machines icx,spr8480 -modes nt,baseline
//	sweep -workloads cloverleaf,stream,jacobi,riemann
//	sweep -ranks 18,36,72 -threads 1,18,36
//	sweep -mesh 3840x3840,15360x15360 -out results/sweep
//	sweep -store results/store             # resumable: warm scenarios skip simulation
//	sweep -workers host1:8075,host2:8075   # shard cold cells across a sweepd fleet
//
// Grid syntax: every axis flag is a comma-separated value list (or
// "all" where noted); the campaign is the full cross product of the
// axes. Unset axes use the runner default (full node, paper mesh).
//
// With -store, every simulated result is appended to a persistent
// content-addressed store and every already-stored scenario is served
// from it: re-running a campaign performs zero simulation work and
// emits byte-identical output.
//
// -workers is overloaded: an integer sizes the local worker pool,
// while a comma-separated list of sweepd URLs selects the remote
// dispatch backend — the campaign's cold cells are sharded across the
// fleet (weighted by each worker's advertised capacity, with retry on
// worker failure and straggler re-dispatch), results are merged back
// into deterministic grid order, and the output is byte-identical to
// a local run. Combined with -store, remote results are written
// through locally, so a distributed campaign is resumable exactly
// like a local one. Fleets must run the same physics version as this
// binary; mixed fleets are refused.
//
// campaign.csv and campaign.json are written once the campaign has
// finished, in grid order. -progress keeps a live completion counter
// on stderr (updated per scenario, including failures); it combines
// with -q for quiet-but-visible long campaigns. Under a fleet backend
// the workers stream results back per cell over NDJSON, so -progress
// advances as remote cells finish rather than per chunk.
//
// Ctrl-C (SIGINT) or SIGTERM interrupts a campaign cleanly: running
// scenarios finish and persist, unstarted ones are skipped, and the
// partial campaign is emitted before exit.
//
// Exit codes: 0 = campaign complete and durable; 1 = runtime failure
// (a scenario failed, output I/O failed, or store writes/sync failed);
// 2 = usage error; 3 = interrupted — partial results emitted and, with
// -store, persisted, so re-running the same command resumes the
// campaign.
//
// The program logic lives in internal/sweepcli, where the e2e test
// harness runs it in-process.
package main

import (
	"os"

	"cloversim/internal/sweepcli"
)

func main() {
	os.Exit(sweepcli.Main(os.Args[1:], os.Stdout, os.Stderr))
}
