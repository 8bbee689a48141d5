// Command conjserved serves a shared checking engine over HTTP/JSON: the
// paper's whole pipeline — check, matrix sweep, triage, minimization and
// fuzzing campaigns — behind /check, /sweep, /triage, /minimize and
// /campaign, with request batching (identical concurrent submissions
// coalesce onto one cache-backed computation), bounded admission control
// (429 past the queue limit, 503 past the per-request deadline, both with
// Retry-After), and byte-deterministic response bodies so replicas can be
// load-balanced and replayed. /stats surfaces the engine's cache and
// hunting counters; with -hunt-budget a background Engine.Hunt runs for
// the server's lifetime and /hunt/status reports its progress.
//
// Usage:
//
//	conjserved [-addr :8080] [-workers 0] [-cache 4096] [-respcache 1024]
//	           [-timeout 30s] [-inflight 0] [-queue 0] [-store artifacts/]
//	           [-hunt-budget 0] [-hunt-family gc] [-hunt-version trunk]
//	           [-hunt-seed 1] [-hunt-shard i/n] [-hunt-batch 0]
//	           [-hunt-nominimize] [-corpus hunt.jsonl]
//
// -hunt-shard i/n restricts the background hunt to shard i's slice of
// the seed space, so a herd of replicas on the same -hunt-seed covers
// disjoint seed ranges; each replica's findings surface on /hunt/export
// and any replica (or cmd/conjherd) can union corpora via /hunt/merge
// into one global bug set.
//
// -store points the engine at a persistent artifact directory (the
// content-addressed .mcx store of internal/store): plain builds are served
// from disk when present and written through when not, so a restarted —
// or second — replica pointed at the same directory warm-starts off
// earlier compilations. The flag is strict: a store that cannot be opened
// is fatal, not silently degraded.
//
// SIGINT/SIGTERM drain in-flight requests (and checkpoint the hunt's
// corpus) before exiting.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro"
	"repro/internal/compiler"
)

func main() {
	addr := flag.String("addr", ":8080", "TCP listen address")
	workers := flag.Int("workers", 0, "engine worker-pool size (0: GOMAXPROCS)")
	cacheSize := flag.Int("cache", 0, "engine cache entries (0: the default, negative: unbounded)")
	respCache := flag.Int("respcache", 0, "response-body cache entries (0: the default, negative: disabled)")
	timeout := flag.Duration("timeout", 0, "per-request deadline (0: the default, negative: none)")
	inflight := flag.Int("inflight", 0, "max concurrently processed requests (0: worker count)")
	queue := flag.Int("queue", 0, "admission queue depth beyond -inflight (0: the default, negative: no queue)")
	huntBudget := flag.Int("hunt-budget", 0, "run a background hunt of this many fuzzed programs (0: no hunt)")
	huntFamily := flag.String("hunt-family", "gc", "background hunt compiler family")
	huntVersion := flag.String("hunt-version", "trunk", "background hunt compiler version")
	huntSeed := flag.Int64("hunt-seed", 1, "background hunt first fuzzer seed")
	huntShard := flag.String("hunt-shard", "", "background hunt seed shard as \"i/n\" (empty: unsharded)")
	huntBatch := flag.Int("hunt-batch", 0, "background hunt programs per batch (0: the default)")
	huntNoMinimize := flag.Bool("hunt-nominimize", false, "background hunt keeps original exemplars (faster discovery)")
	corpusPath := flag.String("corpus", "", "background hunt corpus checkpoint path (JSONL)")
	storeDir := flag.String("store", "", "persistent artifact store directory (.mcx containers, shareable between replicas)")
	flag.Parse()

	var opts []pokeholes.Option
	if *workers > 0 {
		opts = append(opts, pokeholes.WithWorkers(*workers))
	}
	if *cacheSize != 0 {
		opts = append(opts, pokeholes.WithCompileCache(*cacheSize))
	}
	if *storeDir != "" {
		opts = append(opts, pokeholes.WithArtifactStore(*storeDir))
	}
	eng := pokeholes.NewEngine(opts...)
	// An engine whose store failed to open silently degrades to memory-only
	// caching; a server explicitly asked to persist must not.
	if serr := eng.Stats().StoreError; serr != "" {
		log.Fatalf("conjserved: -store %s: %s", *storeDir, serr)
	}

	spec := pokeholes.ServeSpec{
		Addr:           *addr,
		MaxInflight:    *inflight,
		MaxQueue:       *queue,
		RequestTimeout: *timeout,
		ResponseCache:  *respCache,
	}
	if *huntBudget > 0 {
		spec.Hunt = &pokeholes.HuntSpec{
			Family:     compiler.Family(*huntFamily),
			Version:    *huntVersion,
			Budget:     *huntBudget,
			Seed0:      *huntSeed,
			BatchSize:  *huntBatch,
			NoMinimize: *huntNoMinimize,
			CorpusPath: *corpusPath,
			Progress: func(p pokeholes.HuntProgress) {
				log.Printf("hunt: batch %d, %d programs, %d buckets (%d new)",
					p.Batch, p.Programs, p.Buckets, p.NewInBatch)
			},
		}
		if *huntShard != "" {
			var idx, cnt int
			if _, err := fmt.Sscanf(*huntShard, "%d/%d", &idx, &cnt); err != nil || cnt < 1 || idx < 0 || idx >= cnt {
				log.Fatalf("conjserved: -hunt-shard %q: want \"i/n\" with 0 <= i < n", *huntShard)
			}
			spec.Hunt.ShardIndex, spec.Hunt.ShardCount = idx, cnt
		}
	}

	// SIGINT/SIGTERM start the graceful drain: Serve stops accepting,
	// waits for in-flight requests, and joins the background hunt (which
	// checkpoints its corpus on cancellation).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	log.Printf("conjserved: listening on %s", *addr)
	start := time.Now()
	if err := eng.Serve(ctx, spec); err != nil {
		log.Fatalf("conjserved: %v", err)
	}
	st := eng.Stats()
	log.Printf("conjserved: frontend fn-cache: %d lookups, %d hits, %d functions relowered",
		st.FnFrontends, st.FnFrontendHits, st.FnRelowered)
	log.Printf("conjserved: drained cleanly after %s", time.Since(start).Round(time.Millisecond))
}
