// Command paperbench regenerates the paper's tables and figures at
// configurable scale and prints them as text, or as machine-readable JSON
// with -json for benchmark trajectories. Experiments run on an Engine
// session whose worker pool parallelizes each campaign.
//
// Usage:
//
//	paperbench [-exp all|fig1|tab1|fig23|tab2|tab3|tab4|fig4|regress|matrix|hunt|herd]
//	           [-matrix] [-n 200] [-seed 1] [-workers 0] [-cache 4096] [-json]
//	           [-bench-json BENCH_trace.json]
//
// -matrix (or -exp matrix) runs the full version × level grid of both
// families as one Engine.Sweep matrix campaign per family: every program
// is lowered exactly once for its whole grid. -exp hunt runs a budgeted
// deduplicated Engine.Hunt and prints the unique-bugs-over-time curve.
// -exp herd runs the distributed-hunting scaling experiment
// (experiments.ScalingCurve): the same total fuzzing budget spent by 1,
// 4 and 16 sharded replicas, their corpora merged via corpus.Merge, as
// merged-unique-buckets-over-wall-clock curves.
//
// -bench-json FILE times the hot tracing paths — check, full-matrix sweep,
// and check + cross-validate — on cold engine sessions and writes their
// ns-per-op (plus the measured VM executions per cross-validated binary)
// as JSON; CI runs it every push and uploads the file as the benchmark
// trajectory artifact. It also writes BENCH_store.json next to FILE,
// timing a cold compilation against a disk load of the same build from a
// pre-warmed artifact store, and BENCH_frontend.json, timing the
// function-granular incremental frontend (cold, one-function-changed,
// one-statement-deleted, unchanged, with functions-relowered-per-op)
// against the whole-program frontend, and BENCH_schedule.json, timing one
// ScheduleReduce delta-debugging run on a warm engine (every ddmin probe
// reuses the cached lowered module) against the same reduction forced to
// recompile from scratch on every probe, with the probes-per-op count,
// and BENCH_herd.json, the distributed-hunting scaling curves (1 vs 4 vs
// 16 sharded replicas at equal total budget, merged via corpus.Merge)
// with the 4-replica-dominates-solo acceptance check enforced.
// Alone it runs only the benchmarks; combined with -exp or -matrix it
// runs both.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"strings"

	"repro"
	"repro/internal/compiler"
	"repro/internal/experiments"
	"repro/internal/minic"
)

// experimentJSON is one -json record: identity, wall time, and the
// experiment-specific payload.
type experimentJSON struct {
	Experiment  string  `json:"experiment"`
	Programs    int     `json:"programs"`
	Seed        int64   `json:"seed"`
	WallSeconds float64 `json:"wall_seconds"`
	Payload     any     `json:"payload,omitempty"`
}

type reportJSON struct {
	Experiments []experimentJSON      `json:"experiments"`
	Engine      pokeholes.EngineStats `json:"engine"`
	Workers     int                   `json:"workers"`
	TotalWallS  float64               `json:"total_wall_seconds"`
}

func main() {
	exp := flag.String("exp", "all", "experiment id: fig1, tab1, fig23, tab2, tab3, tab4, fig4, regress, matrix, hunt, herd, all")
	matrix := flag.Bool("matrix", false, "run the full version × level matrix sweep of both families (alone: only the matrix; with -exp: in addition)")
	n := flag.Int("n", 200, "number of fuzzed programs (paper: 1000 for tables, 5000 for fig1)")
	nTriage := flag.Int("ntriage", 10, "programs for the triage table (expensive)")
	seed := flag.Int64("seed", 1, "first seed")
	workers := flag.Int("workers", 0, "campaign worker-pool size (0: GOMAXPROCS)")
	cacheSize := flag.Int("cache", pokeholes.DefaultCacheSize, "compile-cache entries (0 disables)")
	jsonOut := flag.Bool("json", false, "emit machine-readable per-experiment results on stdout")
	benchJSON := flag.String("bench-json", "", "write check/sweep/cross-validate ns-per-op to this file (alone: benchmarks only)")
	flag.Parse()
	// A bare -matrix means "just the matrix", not "everything plus the
	// matrix"; an explicitly passed -exp selection (including "all") keeps
	// running alongside it.
	expSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "exp" {
			expSet = true
		}
	})
	if *matrix && !expSet {
		*exp = "matrix"
	}
	if *benchJSON != "" {
		if err := writeBenchTrace(*benchJSON); err != nil {
			fatal(err)
		}
		fmt.Fprintln(os.Stderr, "paperbench: wrote", *benchJSON)
		storeJSON := filepath.Join(filepath.Dir(*benchJSON), "BENCH_store.json")
		if err := writeBenchStore(storeJSON); err != nil {
			fatal(err)
		}
		fmt.Fprintln(os.Stderr, "paperbench: wrote", storeJSON)
		frontendJSON := filepath.Join(filepath.Dir(*benchJSON), "BENCH_frontend.json")
		if err := writeBenchFrontend(frontendJSON); err != nil {
			fatal(err)
		}
		fmt.Fprintln(os.Stderr, "paperbench: wrote", frontendJSON)
		scheduleJSON := filepath.Join(filepath.Dir(*benchJSON), "BENCH_schedule.json")
		if err := writeBenchSchedule(scheduleJSON); err != nil {
			fatal(err)
		}
		fmt.Fprintln(os.Stderr, "paperbench: wrote", scheduleJSON)
		herdJSON := filepath.Join(filepath.Dir(*benchJSON), "BENCH_herd.json")
		if err := writeBenchHerd(herdJSON); err != nil {
			fatal(err)
		}
		fmt.Fprintln(os.Stderr, "paperbench: wrote", herdJSON)
		// A bare -bench-json means "just the trajectory".
		if !expSet && !*matrix {
			return
		}
	}

	var opts []pokeholes.Option
	if *workers > 0 {
		opts = append(opts, pokeholes.WithWorkers(*workers))
	}
	opts = append(opts, pokeholes.WithCompileCache(*cacheSize))
	eng := pokeholes.NewEngine(opts...)
	runner := experiments.NewRunner(eng)
	ctx := context.Background()

	var w io.Writer = os.Stdout
	if *jsonOut {
		w = io.Discard
	}
	var records []experimentJSON
	t0 := time.Now()
	record := func(id string, programs int, payload any, start time.Time) {
		records = append(records, experimentJSON{
			Experiment: id, Programs: programs, Seed: *seed,
			WallSeconds: time.Since(start).Seconds(), Payload: payload})
	}
	run := func(id string) bool { return *exp == "all" || *exp == id }

	if run("fig1") {
		start := time.Now()
		cells, err := runner.Figure1(ctx, *n/4, *seed, w)
		if err != nil {
			fatal(err)
		}
		record("fig1", *n/4, cells, start)
		fmt.Fprintln(w)
	}
	var gc, cl *experiments.LevelViolations
	if run("tab1") || run("fig23") {
		start := time.Now()
		var err error
		gc, cl, err = runner.Table1(ctx, *n, *seed, w)
		if err != nil {
			fatal(err)
		}
		if run("tab1") {
			record("tab1", *n, map[string]any{
				"cl_unique": [3]int{cl.Unique(1), cl.Unique(2), cl.Unique(3)},
				"gc_unique": [3]int{gc.Unique(1), gc.Unique(2), gc.Unique(3)},
				"cl_clean":  cl.CleanPrograms,
				"gc_clean":  gc.CleanPrograms,
			}, start)
		}
		fmt.Fprintln(w)
	}
	if run("fig23") {
		start := time.Now()
		fmt.Fprintln(w, "Figure 2 (cl):")
		experiments.Figure23(cl, w)
		fmt.Fprintln(w, "Figure 3 (gc):")
		experiments.Figure23(gc, w)
		record("fig23", *n, map[string]any{
			"cl": experiments.LevelSetDistribution(cl),
			"gc": experiments.LevelSetDistribution(gc),
		}, start)
		fmt.Fprintln(w)
	}
	if run("tab2") {
		start := time.Now()
		rows, err := runner.Table2(ctx, *nTriage, *seed, w)
		if err != nil {
			fatal(err)
		}
		record("tab2", *nTriage, rows, start)
		fmt.Fprintln(w)
	}
	if run("tab3") {
		start := time.Now()
		experiments.Table3(w)
		record("tab3", 0, nil, start)
		fmt.Fprintln(w)
	}
	if run("tab4") {
		start := time.Now()
		rows, err := runner.Table4(ctx, *n/2, *seed, w)
		if err != nil {
			fatal(err)
		}
		record("tab4", *n/2, rows, start)
		fmt.Fprintln(w)
	}
	if run("fig4") {
		start := time.Now()
		if err := runner.Figure4(ctx, *n/2, *seed, w); err != nil {
			fatal(err)
		}
		record("fig4", *n/2, nil, start)
		fmt.Fprintln(w)
	}
	if run("hunt") {
		start := time.Now()
		rep, err := runner.HuntCurve(ctx, pokeholes.HuntSpec{
			Family: pokeholes.GC, Version: "trunk", Budget: *n, Seed0: *seed}, w)
		if err != nil {
			fatal(err)
		}
		record("hunt", *n, map[string]any{
			"curve": rep.Curve, "buckets": rep.Corpus.Len(),
			"violations": rep.Violations, "dups": rep.Dups,
		}, start)
		fmt.Fprintln(w)
	}
	if run("herd") {
		start := time.Now()
		// A fixed small budget keeps every fleet size under the adaptive-
		// weight warmup per replica, the regime where the curves are
		// comparable point-for-point (same program per seed at any fleet
		// size); it must divide by every fleet size.
		res, err := runner.ScalingCurve(ctx, pokeholes.HuntSpec{
			Family: pokeholes.GC, Version: "trunk", Levels: []string{"O2"},
			Budget: 32, Seed0: *seed, BatchSize: 8}, []int{1, 4, 16}, w)
		if err != nil {
			fatal(err)
		}
		record("herd", 32*len(res.Series), res, start)
		fmt.Fprintln(w)
	}
	if *matrix || *exp == "matrix" {
		start := time.Now()
		payload := map[string]any{}
		for _, fam := range []pokeholes.Family{pokeholes.CL, pokeholes.GC} {
			vers := pokeholes.Versions(fam)
			byVer, err := runner.MatrixSweep(ctx, fam, vers, *n, *seed)
			if err != nil {
				fatal(err)
			}
			fmt.Fprintf(w, "Matrix (%s): unique violations per version across all optimizing levels, %d programs\n", fam, *n)
			fmt.Fprintf(w, "%-10s %6s %6s %6s\n", "version", "C1", "C2", "C3")
			famPayload := map[string][3]int{}
			for _, ver := range vers {
				lv := byVer[ver]
				counts := [3]int{lv.Unique(1), lv.Unique(2), lv.Unique(3)}
				famPayload[ver] = counts
				fmt.Fprintf(w, "%-10s %6d %6d %6d\n", ver, counts[0], counts[1], counts[2])
			}
			payload[string(fam)] = famPayload
		}
		record("matrix", *n, payload, start)
		fmt.Fprintln(w)
	}
	if run("regress") {
		start := time.Now()
		t1, p1, og, err := runner.RegressionAvailability(ctx, *n/4, *seed, w)
		if err != nil {
			fatal(err)
		}
		payload := map[string]float64{"trunk_o1": t1, "patched_o1": p1, "og_reference": og}
		if og > t1 {
			closed := (p1 - t1) / (og - t1)
			payload["gap_closed"] = closed
			fmt.Fprintf(w, "the patch closes %.0f%% of the O1 -> Og availability gap (paper: ~50%%)\n", closed*100)
		}
		record("regress", *n/4, payload, start)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(reportJSON{
			Experiments: records,
			Engine:      eng.Stats(),
			Workers:     *workers,
			TotalWallS:  time.Since(t0).Seconds(),
		}); err != nil {
			fatal(err)
		}
	}
}

// benchRecordJSON is one timed probe of the tracing hot path.
type benchRecordJSON struct {
	Name    string `json:"name"`
	NsPerOp int64  `json:"ns_per_op"`
	Ops     int    `json:"ops"`
	// VMExecutionsPerOp is the recorded executions one operation costs
	// (cross_validate pins the single-pass contract: 1 per binary).
	VMExecutionsPerOp float64 `json:"vm_executions_per_op,omitempty"`
}

// benchTraceJSON is the BENCH_trace.json schema CI uploads as the
// benchmark trajectory artifact.
type benchTraceJSON struct {
	Benchmarks  []benchRecordJSON `json:"benchmarks"`
	GeneratedAt string            `json:"generated_at"`
}

// writeBenchTrace times the tracing hot paths on cold engine sessions —
// the seed of the benchmark trajectory (check, full-matrix sweep, and the
// single-pass check + cross-validate) — and writes them as JSON.
func writeBenchTrace(path string) error {
	ctx := context.Background()
	cfg := pokeholes.Config{Family: pokeholes.GC, Version: "trunk", Level: "O2"}
	prog := pokeholes.GenerateProgram(7)
	mx := pokeholes.FullMatrix(pokeholes.GC)

	// A violating program gives cross-validation real work.
	vProg := prog
	var violations []pokeholes.Violation
	for seed := int64(1); seed < 200 && len(violations) == 0; seed++ {
		p := pokeholes.GenerateProgram(seed)
		r, err := pokeholes.NewEngine().Check(ctx, p, cfg)
		if err != nil {
			return err
		}
		if len(r.Violations) > 0 {
			vProg, violations = p, r.Violations
		}
	}
	crossValidate := func(eng *pokeholes.Engine) error {
		if _, err := eng.Check(ctx, vProg, cfg); err != nil {
			return err
		}
		for _, v := range violations {
			if _, err := eng.CrossValidate(ctx, vProg, cfg, v); err != nil {
				return err
			}
		}
		return nil
	}
	// The executions-per-binary metric, measured outside the timing loop
	// (it is deterministic).
	probe := pokeholes.NewEngine()
	if err := crossValidate(probe); err != nil {
		return err
	}
	executionsPerOp := float64(probe.Stats().Traces)

	probes := []struct {
		name  string
		perOp float64
		run   func(b *testing.B)
	}{
		{"check", 0, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := pokeholes.NewEngine().Check(ctx, prog, cfg); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"sweep", 0, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := pokeholes.NewEngine().Sweep(ctx, prog, mx); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"cross_validate", executionsPerOp, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := crossValidate(pokeholes.NewEngine()); err != nil {
					b.Fatal(err)
				}
			}
		}},
	}
	out := benchTraceJSON{GeneratedAt: time.Now().UTC().Format(time.RFC3339)}
	for _, p := range probes {
		r := testing.Benchmark(p.run)
		out.Benchmarks = append(out.Benchmarks, benchRecordJSON{
			Name: p.name, NsPerOp: r.NsPerOp(), Ops: r.N, VMExecutionsPerOp: p.perOp})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeBenchStore times the artifact-store trade: a cold compilation
// (frontend + backend on a fresh engine) against a disk load of the same
// build (container decode from a pre-warmed store on a fresh engine). The
// two run over identical programs, so their ns/op ratio is the store's
// speedup on a warm start. Written next to BENCH_trace.json as
// BENCH_store.json and uploaded by CI alongside it.
func writeBenchStore(path string) error {
	ctx := context.Background()
	cfg := pokeholes.Config{Family: pokeholes.GC, Version: "trunk", Level: "O2"}
	prog := pokeholes.GenerateProgram(7)

	dir, err := os.MkdirTemp("", "paperbench-store-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	warm := pokeholes.NewEngine(pokeholes.WithArtifactStore(dir))
	if serr := warm.Stats().StoreError; serr != "" {
		return fmt.Errorf("bench store: %s", serr)
	}
	if _, err := warm.Compile(ctx, prog, cfg); err != nil {
		return err
	}

	probes := []struct {
		name string
		run  func(b *testing.B)
	}{
		// Fresh engines per iteration keep the memory cache out of both
		// measurements; the only difference is where the build comes from.
		{"cold_compile", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := pokeholes.NewEngine().Compile(ctx, prog, cfg); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"disk_load", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				eng := pokeholes.NewEngine(pokeholes.WithArtifactStore(dir))
				if _, err := eng.Compile(ctx, prog, cfg); err != nil {
					b.Fatal(err)
				}
				if st := eng.Stats(); st.Compiles != 0 {
					b.Fatalf("disk_load iteration compiled %d times, want 0", st.Compiles)
				}
			}
		}},
	}
	out := benchTraceJSON{GeneratedAt: time.Now().UTC().Format(time.RFC3339)}
	for _, p := range probes {
		r := testing.Benchmark(p.run)
		out.Benchmarks = append(out.Benchmarks, benchRecordJSON{
			Name: p.name, NsPerOp: r.NsPerOp(), Ops: r.N})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// benchFrontendRecordJSON is one timed probe of the frontend stage: ns/op
// plus the functions re-lowered per operation (the incremental frontend's
// figure of merit — a one-function edit should re-lower exactly one).
type benchFrontendRecordJSON struct {
	Name             string  `json:"name"`
	NsPerOp          int64   `json:"ns_per_op"`
	Ops              int     `json:"ops"`
	FnReloweredPerOp float64 `json:"fn_relowered_per_op"`
}

// benchFrontendJSON is the BENCH_frontend.json schema CI uploads next to
// the benchmark trajectory artifact.
type benchFrontendJSON struct {
	Benchmarks  []benchFrontendRecordJSON `json:"benchmarks"`
	GeneratedAt string                    `json:"generated_at"`
}

// frozenBenchFnCache serves reads from the wrapped cache but drops writes,
// so a probe can replay "this exact delta arrives cold" every iteration.
type frozenBenchFnCache struct{ compiler.FnCache }

func (frozenBenchFnCache) AddFunc(string, *compiler.FnArtifact)      {}
func (frozenBenchFnCache) AddGlobals(string, *compiler.GlobalsTable) {}

// writeBenchFrontend times the function-granular incremental frontend's
// three cache states — cold (every function lowers), a warm cache seeing a
// one-function edit or a one-statement deletion (the fuzz-mutant and
// reduction-candidate hot paths), and a warm cache seeing the identical
// program (pure assembly) — against the whole-program frontend on the same
// many-function input. Written next to BENCH_trace.json as
// BENCH_frontend.json and uploaded by CI alongside it.
func writeBenchFrontend(path string) error {
	const nfuncs = 10
	var sb strings.Builder
	sb.WriteString("int g1 = 1;\nvolatile int g2;\nint a[8] = {1, 2, 3, 4, 5, 6, 7, 8};\n")
	for i := 0; i < nfuncs; i++ {
		fmt.Fprintf(&sb, `int fn%d(int x) {
  int acc = %d;
  int i = 0;
  for (; i < 8; i = i + 1) {
    acc = acc + a[i] * x;
    if (acc > 100) {
      acc = acc - g1;
    }
  }
  g2 = acc;
  return acc;
}
`, i, i)
	}
	sb.WriteString("int main(void) {\n  int s = 0;\n")
	for i := 0; i < nfuncs; i++ {
		fmt.Fprintf(&sb, "  s = s + fn%d(s);\n", i)
	}
	sb.WriteString("  return s;\n}\n")
	parse := func(src string) (*minic.Program, string, error) {
		p, err := minic.Parse(src)
		if err != nil {
			return nil, "", err
		}
		minic.AssignLines(p)
		if err := minic.Check(p); err != nil {
			return nil, "", err
		}
		return p, minic.Render(p), nil
	}
	prog, progSrc, err := parse(sb.String())
	if err != nil {
		return err
	}
	// The changed mutant flips an operator inside fn4 (a same-shape edit,
	// the typical fuzz mutation); the deleted mutant removes one statement
	// from fn4 (the typical reduction candidate, shifting every function
	// below it).
	changed, changedSrc, err := parse(strings.Replace(progSrc,
		"      acc = acc - g1;\n    }\n  }\n  g2 = acc;\n  return acc;\n}\nint fn5",
		"      acc = acc + g1;\n    }\n  }\n  g2 = acc;\n  return acc;\n}\nint fn5", 1))
	if err != nil {
		return err
	}
	deleted, deletedSrc, err := parse(strings.Replace(progSrc,
		"  g2 = acc;\n  return acc;\n}\nint fn5", "  return acc;\n}\nint fn5", 1))
	if err != nil {
		return err
	}
	warm := func() (compiler.FnCache, error) {
		c := compiler.NewMemFnCache()
		if _, _, err := compiler.FrontendIncrementalSrc(prog, progSrc, c); err != nil {
			return nil, err
		}
		return frozenBenchFnCache{c}, nil
	}

	probes := []struct {
		name string
		p    *minic.Program
		src  string
		want int // functions re-lowered per op, -1 for "all, whole-program"
	}{
		{"whole", prog, progSrc, -1},
		{"cold", prog, progSrc, len(prog.Funcs)},
		{"one_changed", changed, changedSrc, 1},
		{"one_deleted", deleted, deletedSrc, 1},
		{"unchanged", prog, progSrc, 0},
	}
	out := benchFrontendJSON{GeneratedAt: time.Now().UTC().Format(time.RFC3339)}
	for _, p := range probes {
		var relowered int
		var r testing.BenchmarkResult
		if p.want < 0 {
			relowered = len(prog.Funcs)
			r = testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := compiler.Frontend(p.p); err != nil {
						b.Fatal(err)
					}
				}
			})
		} else {
			cold := p.want == len(prog.Funcs)
			var cache compiler.FnCache
			if !cold {
				if cache, err = warm(); err != nil {
					return err
				}
			}
			r = testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					c := cache
					if cold {
						c = compiler.NewMemFnCache()
					}
					_, n, err := compiler.FrontendIncrementalSrc(p.p, p.src, c)
					if err != nil {
						b.Fatal(err)
					}
					relowered = n
				}
			})
			if relowered != p.want {
				return fmt.Errorf("bench frontend: %s relowered %d functions, want %d",
					p.name, relowered, p.want)
			}
		}
		out.Benchmarks = append(out.Benchmarks, benchFrontendRecordJSON{
			Name: p.name, NsPerOp: r.NsPerOp(), Ops: r.N,
			FnReloweredPerOp: float64(relowered)})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// benchScheduleRecordJSON is one timed probe of schedule delta debugging:
// ns/op plus the ddmin probes one reduction costs (deterministic for a
// fixed violation, so it is measured once outside the timing loop).
type benchScheduleRecordJSON struct {
	Name        string `json:"name"`
	NsPerOp     int64  `json:"ns_per_op"`
	Ops         int    `json:"ops"`
	ProbesPerOp int    `json:"probes_per_op"`
}

// benchScheduleJSON is the BENCH_schedule.json schema CI uploads next to
// the benchmark trajectory artifact.
type benchScheduleJSON struct {
	Benchmarks []benchScheduleRecordJSON `json:"benchmarks"`
	// MinimalSchedule is the reduction's answer on the probe violation,
	// recorded so trajectory diffs notice a behavior change, not just a
	// speed change.
	MinimalSchedule string `json:"minimal_schedule"`
	GeneratedAt     string `json:"generated_at"`
}

// writeBenchSchedule times one ScheduleReduce delta-debugging run two
// ways: on a warm engine, where every ddmin probe re-optimizes the cached
// lowered module (the designed hot path — zero frontend runs), and on an
// engine with the compile cache disabled, where every probe recompiles
// from scratch — the cost the schedule-aware cache keys save. The Check
// that warms each engine runs outside the timer, so the ns/op ratio is
// purely the per-probe saving. Written next to BENCH_trace.json as
// BENCH_schedule.json and uploaded by CI alongside it.
func writeBenchSchedule(path string) error {
	ctx := context.Background()
	cfg := pokeholes.Config{Family: pokeholes.GC, Version: "trunk", Level: "O2"}

	// Find a violating program to reduce (same scan as writeBenchTrace).
	var vProg *minic.Program
	var v pokeholes.Violation
	for seed := int64(1); seed < 200; seed++ {
		p := pokeholes.GenerateProgram(seed)
		r, err := pokeholes.NewEngine().Check(ctx, p, cfg)
		if err != nil {
			return err
		}
		if len(r.Violations) > 0 {
			vProg, v = p, r.Violations[0]
			break
		}
	}
	if vProg == nil {
		return fmt.Errorf("bench schedule: no violating program in the seed scan")
	}

	// Probes/op and the minimal schedule, measured once outside the timing
	// loop (the reduction is deterministic).
	probeEng := pokeholes.NewEngine()
	if _, err := probeEng.Check(ctx, vProg, cfg); err != nil {
		return err
	}
	red, err := probeEng.ScheduleReduce(ctx, vProg, cfg, v)
	if err != nil {
		return err
	}

	// Fresh engine per iteration: a reused engine would answer later
	// reductions from the schedule-keyed cache entries the first one
	// populated, which measures the cache, not the reduction.
	reduce := func(b *testing.B, opts ...pokeholes.Option) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			eng := pokeholes.NewEngine(opts...)
			if _, err := eng.Check(ctx, vProg, cfg); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if _, err := eng.ScheduleReduce(ctx, vProg, cfg, v); err != nil {
				b.Fatal(err)
			}
		}
	}
	probes := []struct {
		name string
		run  func(b *testing.B)
	}{
		{"reduce_warm", func(b *testing.B) { reduce(b) }},
		{"reduce_full_recompile", func(b *testing.B) {
			reduce(b, pokeholes.WithCompileCache(0))
		}},
	}
	out := benchScheduleJSON{
		MinimalSchedule: red.Schedule.String(),
		GeneratedAt:     time.Now().UTC().Format(time.RFC3339),
	}
	for _, p := range probes {
		r := testing.Benchmark(p.run)
		out.Benchmarks = append(out.Benchmarks, benchScheduleRecordJSON{
			Name: p.name, NsPerOp: r.NsPerOp(), Ops: r.N, ProbesPerOp: red.Probes})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// benchHerdJSON is the BENCH_herd.json schema CI uploads next to the
// benchmark trajectory artifact: the distributed-hunting scaling curves
// (1 vs 4 vs 16 sharded replicas spending the same total budget, merged
// via corpus.Merge).
type benchHerdJSON struct {
	Scaling     *experiments.ScalingResult `json:"scaling"`
	WallSeconds float64                    `json:"wall_seconds"`
	GeneratedAt string                     `json:"generated_at"`
}

// writeBenchHerd runs the distributed-hunting scaling experiment at a
// fixed small budget (under the adaptive-weight warmup, so every fleet
// size fuzzes the identical program per seed and the curves compare
// point-for-point) and enforces the acceptance criterion — the 4-replica
// fleet strictly dominates the solo hunt at its final wall-clock point —
// so trajectory diffs notice a semantics regression, not just new
// numbers. Written next to BENCH_trace.json as BENCH_herd.json.
func writeBenchHerd(path string) error {
	spec := pokeholes.HuntSpec{
		Family: pokeholes.GC, Version: "trunk", Levels: []string{"O2"},
		Budget: 32, Seed0: 900, BatchSize: 8,
	}
	start := time.Now()
	res, err := experiments.NewRunner(pokeholes.NewEngine()).
		ScalingCurve(context.Background(), spec, []int{1, 4, 16}, io.Discard)
	if err != nil {
		return err
	}
	solo, fleet := res.Fleet(1), res.Fleet(4)
	last := len(fleet.Points) - 1
	if ft, st := fleet.Points[last].Buckets, solo.Points[last].Buckets; ft <= st {
		return fmt.Errorf("bench herd: 4-replica fleet has %d buckets at its final point, solo has %d — want strictly more", ft, st)
	}
	out := benchHerdJSON{
		Scaling:     res,
		WallSeconds: time.Since(start).Seconds(),
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "paperbench:", err)
	os.Exit(1)
}
