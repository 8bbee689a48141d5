// Command loopbench is the repository's benchmark. It times the paper's
// checking loop (fuzz, compile under many configurations, trace under a
// debugger, check the conjectures) on two workloads, each driven only
// through the public entry point Engine.NewServer(...).Handler():
//
//	serve       closed-loop /check and /sweep traffic, 60% of it re-sent,
//	            one op per request
//	serve-cold  closed-loop /check traffic with every request distinct,
//	            one op per request
//
// A run generates its inputs from -seed, measures for -seconds, checks the
// outputs outside the timed window, and prints one JSON object as the last
// line of standard output. With -trace 0 it reports the end-to-end
// metrics; with -trace 1 the per-layer ones: the work counters of the
// untraced run plus a traced replay that sends the workload's own inputs
// through the layer packages, one span per call. Build and run it with
// benchmark/run.sh from the repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

var processStart = time.Now()

// runConfig is one invocation's settings.
type runConfig struct {
	seed    int64
	seconds int
	workers int
	workdir string
	start   time.Time // setup_s counts from here
}

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: serve, serve-cold, or all (each in turn)")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 50, "length of the timed window in seconds")
	trace := flag.Int("trace", 0, "1: report per-layer metrics, adding a traced replay; 0: end-to-end metrics")
	workdir := flag.String("workdir", ".bench_build/run", "directory the traced replay writes its spans to")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatalf("need -seconds >= 1 and -trace 0 or 1")
	}
	names := []string{*name}
	if *name == "all" {
		names = []string{"serve", "serve-cold"}
	}
	for _, n := range names {
		if _, ok := serveMixes[n]; !ok {
			fatalf("unknown workload %q (want serve, serve-cold or all)", *name)
		}
	}
	if _, err := os.Stat(goldenDir); err != nil {
		fatalf("run from the repository root: %v", err)
	}
	rc := runConfig{seed: *seed, seconds: *seconds, workers: runtime.GOMAXPROCS(0), workdir: mustMkdir(*workdir)}

	total := result{Correct: true, Metrics: map[string]metric{}}
	for i, n := range names {
		rc.start = processStart
		if i > 0 {
			// Each workload's peak memory and set-up time are its own.
			debug.FreeOSMemory()
			if err := resetPeakRSS(); err != nil {
				fatalf("resetting peak RSS between workloads: %v", err)
			}
			rc.start = time.Now()
		}
		o := serveRun(rc, serveMixes[n])
		res := report(n, o)
		// The replay's call counters come from fixed inputs on one
		// goroutine; those that read the same in both of the run's replays
		// are flagged as exact repeats. The window's counters are not
		// flagged: they depend on how much work fits in the window.
		exact := map[string]bool{}
		if *trace == 1 {
			res.Metrics = o.layerMetrics()
			rp, err := replay(n, rc)
			if err != nil {
				fatalf("%s replay: %v", n, err)
			}
			rp.into(res.Metrics, exact)
			printReplay(n, rp)
		}
		printLayers(n, res.Metrics, exact)
		if len(names) == 1 {
			total = res
			break
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, v := range res.Metrics {
			total.Metrics[n+"."+k] = v
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
}

// report prints a run's human-readable summary and returns its
// end-to-end result.
func report(name string, o *outcome) result {
	p50, _ := percentile(o.lat, 0.50)
	p99, beyond := percentile(o.lat, 0.99)
	fmt.Printf("== %s: %d ops in %.2fs, %d attempted, %d failed\n", name, o.ops, o.window.Seconds(), o.attempted, o.failed)
	fmt.Printf("inputs: %s\n", o.props)
	for _, n := range o.notes {
		fmt.Printf("check: %s\n", n)
	}
	fmt.Printf("latency: %d samples, %d beyond p99", len(o.lat), beyond)
	if beyond < 10 {
		fmt.Printf(" (fewer than 10: p99 is not supported by this run)")
	}
	fmt.Println()
	fmt.Printf("failed_frac %.6f\n", ratio(float64(o.failed), float64(o.attempted)))
	return result{
		Correct:   o.failed == 0 && o.attempted > 0,
		Attempted: max(o.attempted, 1),
		Failed:    o.failed,
		Metrics: map[string]metric{
			"setup_s":        {o.setup.Seconds(), "s"},
			"ops_per_s":      {ratio(float64(o.ops), o.window.Seconds()), "1/s"},
			"latency_p50_ms": {ms(p50), "ms"},
			"latency_p99_ms": {ms(p99), "ms"},
			"peak_rss_mb":    {o.peakRSS, "MB"},
		},
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// layerMetrics converts the run's work counters to metrics.
func (o *outcome) layerMetrics() map[string]metric {
	m := map[string]metric{}
	for k, v := range o.layer {
		m[k] = metric{v, layerUnit(k)}
	}
	return m
}

func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_frac"):
		return "frac"
	case strings.HasSuffix(name, "_ms_per_op"), strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasPrefix(name, "go.alloc_mb"):
		return "MB"
	}
	return "count"
}

// printLayers prints the metrics table, marking the exact repeats.
func printLayers(name string, m map[string]metric, exact map[string]bool) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		flag := ""
		if exact[k] {
			flag = "  [exact-repeat]"
		}
		fmt.Printf("%-6s %-34s %14.6g %s%s\n", name, k, m[k].Value, m[k].Unit, flag)
	}
}

func mustMkdir(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatalf("%v", err)
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		fatalf("%v", err)
	}
	return abs
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "loopbench: "+format+"\n", args...)
	os.Exit(2)
}
