package main

// Measurement plumbing shared by the workloads: the outcome of one run,
// engine and server counter deltas, Go runtime readings, peak resident
// memory and percentiles.

import (
	"bufio"
	"fmt"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	pokeholes "repro"
)

// outcome is what one workload run measured and checked.
type outcome struct {
	setup     time.Duration   // from runConfig.start to the first timed op
	window    time.Duration   // the timed window
	ops       int64           // ops completed in the window
	attempted int64           // ops attempted (completed plus failed)
	failed    int64           // ops that errored, were refused or produced a wrong output
	lat       []time.Duration // per-op latency as the caller sees it
	peakRSS   float64         // MB
	layer     map[string]float64
	props     string   // the input-property line
	notes     []string // output-check results, one line each
}

// note records one check result line.
func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// fail counts n wrong or failed ops and says why.
func (o *outcome) fail(n int64, format string, args ...any) {
	o.failed += n
	o.note("FAIL "+format, args...)
}

// rtSample is a reading of the Go runtime's cumulative counters.
type rtSample struct {
	allocBytes, allocObjs uint64
	gcCPU, totalCPU       float64
}

func readRuntime() rtSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return rtSample{s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Float64(), s[3].Value.Float64()}
}

// window brackets a timed window: engine, server and runtime counters
// are read at both ends and their deltas become the per-layer work
// counters of the run.
type window struct {
	engine *pokeholes.Engine
	server *pokeholes.Server
	start  time.Time
	eng0   pokeholes.EngineStats
	srv0   pokeholes.ServerStats
	rt0    rtSample
}

func openWindow(server *pokeholes.Server, engine *pokeholes.Engine) *window {
	w := &window{engine: engine, server: server, eng0: engine.Stats(), srv0: server.Stats(), rt0: readRuntime()}
	w.start = time.Now()
	return w
}

// close ends the window after ops completed ops and fills the run's
// per-layer counters and peak memory.
func (w *window) close(o *outcome, ops int64) {
	o.window = time.Since(w.start)
	rt := readRuntime()
	o.ops = ops
	o.peakRSS = peakRSSMB()
	e, e0 := w.engine.Stats(), w.eng0
	s, s0 := w.server.Stats(), w.srv0
	per := func(n int64) float64 { return ratio(float64(n), float64(ops)) }
	hits, misses := s.ResponseHits-s0.ResponseHits, s.ResponseMisses-s0.ResponseMisses
	cacheHits, cacheMisses := e.CacheHits-e0.CacheHits, e.CacheMisses-e0.CacheMisses
	reqs := float64(s.Requests - s0.Requests)
	o.layer = map[string]float64{
		"engine.frontends_per_op":      per(e.Frontends - e0.Frontends),
		"engine.fn_relowered_per_op":   per(e.FnRelowered - e0.FnRelowered),
		"engine.compiles_per_op":       per(e.Compiles - e0.Compiles),
		"engine.traces_per_op":         per(e.Traces - e0.Traces),
		"engine.passes_run_per_op":     per(e.PassesRun - e0.PassesRun),
		"engine.passes_skipped_per_op": per(e.PassesSkipped - e0.PassesSkipped),
		"engine.snapshot_hit_frac":     ratio(float64(e.SnapshotHits-e0.SnapshotHits), float64(e.Compiles-e0.Compiles)),
		"cache.hit_frac":               ratio(float64(cacheHits), float64(cacheHits+cacheMisses)),
		"cache.entries_end":            float64(e.CacheEntries),
		"serve.response_hit_frac":      ratio(float64(hits), float64(hits+misses)),
		"serve.rejected_frac":          ratio(float64(s.Rejected-s0.Rejected), reqs),
		"serve.deadline_frac":          ratio(float64(s.Deadline-s0.Deadline), reqs),
		"go.alloc_mb_per_op":           per(int64(rt.allocBytes-w.rt0.allocBytes)) / (1 << 20),
		"go.allocs_per_op":             per(int64(rt.allocObjs - w.rt0.allocObjs)),
		"go.gc_cpu_frac":               ratio(rt.gcCPU-w.rt0.gcCPU, rt.totalCPU-w.rt0.totalCPU),
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMB is the process's peak resident set size (VmHWM) in MB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// resetPeakRSS restarts the kernel's peak-RSS tracking, so a workload run
// after another in the same process does not inherit its peak.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// percentile returns the q-quantile (0..1) of the samples by the
// nearest-rank method, and how many samples lie strictly above it.
func percentile(samples []time.Duration, q float64) (time.Duration, int) {
	if len(samples) == 0 {
		return 0, 0
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(q*float64(len(s))+0.999999) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank], len(s) - 1 - rank
}
