package pokeholes_test

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro"
)

// reportJSON renders a report deterministically for byte comparison.
func reportJSON(t *testing.T, r *pokeholes.Report) []byte {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSweepMatchesIndependentChecks pins the acceptance criterion: every
// per-config report of a matrix sweep is byte-identical to what an
// independent Engine.Check of that configuration returns.
func TestSweepMatchesIndependentChecks(t *testing.T) {
	ctx := context.Background()
	prog := pokeholes.GenerateProgram(7)
	mx := pokeholes.FullMatrix(pokeholes.GC)
	sr, err := pokeholes.NewEngine().Sweep(ctx, prog, mx)
	if err != nil {
		t.Fatal(err)
	}
	if len(sr.Reports) != len(mx.Configs()) {
		t.Fatalf("got %d reports, want %d", len(sr.Reports), len(mx.Configs()))
	}
	// A separate engine, so nothing is shared with the sweep.
	checker := pokeholes.NewEngine()
	violations := 0
	for i, cfg := range sr.Configs {
		if sr.Reports[i].Config != cfg {
			t.Fatalf("report %d carries config %s, want %s", i, sr.Reports[i].Config, cfg)
		}
		ind, err := checker.Check(ctx, prog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(reportJSON(t, sr.Reports[i]), reportJSON(t, ind)) {
			t.Errorf("%s: sweep report differs from independent Check", cfg)
		}
		violations += len(sr.Reports[i].Violations)
	}
	if violations == 0 {
		t.Error("matrix sweep found no violations at all; the comparison is vacuous")
	}
}

// TestSweepLowersFrontendOncePerProgram pins the staging contract: one
// Sweep over a full version × level matrix runs the frontend exactly once,
// even with the engine cache disabled (the module is shared explicitly),
// while the backend compiles once per config.
func TestSweepLowersFrontendOncePerProgram(t *testing.T) {
	ctx := context.Background()
	prog := pokeholes.GenerateProgram(7)
	mx := pokeholes.FullMatrix(pokeholes.GC)
	mx.Measure = true
	for _, cacheSize := range []int{pokeholes.DefaultCacheSize, 0} {
		eng := pokeholes.NewEngine(pokeholes.WithCompileCache(cacheSize))
		if _, err := eng.Sweep(ctx, prog, mx); err != nil {
			t.Fatal(err)
		}
		stats := eng.Stats()
		if stats.Frontends != 1 {
			t.Errorf("cache=%d: sweep ran the frontend %d times, want exactly 1", cacheSize, stats.Frontends)
		}
		// Every config plus one O0 reference per version, nothing more
		// (cached engines may coalesce further, never exceed).
		maxCompiles := int64(len(mx.Configs()) + len(mx.Versions))
		if stats.Compiles > maxCompiles {
			t.Errorf("cache=%d: %d backend compiles for %d configs (max %d)",
				cacheSize, stats.Compiles, len(mx.Configs()), maxCompiles)
		}
	}
}

// TestMatrixCampaignLowersOncePerProgram extends the frontend contract to
// matrix-mode campaigns: N programs over the grid mean exactly N frontend
// runs.
func TestMatrixCampaignLowersOncePerProgram(t *testing.T) {
	eng := pokeholes.NewEngine(pokeholes.WithWorkers(4))
	const n = 5
	results, err := eng.Campaign(context.Background(), pokeholes.CampaignSpec{
		Matrix: &pokeholes.Matrix{Family: pokeholes.GC}, N: n, Seed0: 500})
	if err != nil {
		t.Fatal(err)
	}
	for res := range results {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if res.Sweep == nil {
			t.Fatal("matrix campaign result carries no sweep")
		}
		if res.Violations != nil {
			t.Error("matrix campaign must not fill the per-level map")
		}
	}
	if got := eng.Stats().Frontends; got != n {
		t.Errorf("campaign over %d programs ran %d frontends, want exactly %d", n, got, n)
	}
}

// TestSweepDeterministicAcrossWorkers: identical matrices yield identical
// report bytes at any parallelism.
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	ctx := context.Background()
	prog := pokeholes.GenerateProgram(11)
	mx := pokeholes.FullMatrix(pokeholes.CL)
	mx.Measure = true
	run := func(workers int) []byte {
		eng := pokeholes.NewEngine(pokeholes.WithWorkers(workers))
		sr, err := eng.Sweep(ctx, prog, mx)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		for i := range sr.Reports {
			buf.Write(reportJSON(t, sr.Reports[i]))
			b, err := json.Marshal(sr.Metrics[i])
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(b)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(run(1), run(8)) {
		t.Error("sweep results differ across worker counts")
	}
}

// TestSweepMeasureMatchesEngineMeasure: the sweep's shared-reference
// metrics equal the per-call Engine.Measure values.
func TestSweepMeasureMatchesEngineMeasure(t *testing.T) {
	ctx := context.Background()
	prog := pokeholes.GenerateProgram(3)
	mx := pokeholes.Matrix{Family: pokeholes.GC, Versions: []string{"trunk"}, Measure: true}
	sr, err := pokeholes.NewEngine().Sweep(ctx, prog, mx)
	if err != nil {
		t.Fatal(err)
	}
	checker := pokeholes.NewEngine()
	for i, cfg := range sr.Configs {
		want, err := checker.Measure(ctx, prog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if sr.Metrics[i] != want {
			t.Errorf("%s: sweep metrics %+v, Measure %+v", cfg, sr.Metrics[i], want)
		}
	}
}

// TestSweepRollups sanity-checks the Figures 2/3 and Table 4 rollups
// against the raw reports.
func TestSweepRollups(t *testing.T) {
	prog := pokeholes.GenerateProgram(7)
	sr, err := pokeholes.NewEngine().Sweep(context.Background(), prog, pokeholes.FullMatrix(pokeholes.GC))
	if err != nil {
		t.Fatal(err)
	}
	for _, ver := range sr.Matrix.Versions {
		sets := sr.LevelSets(ver)
		dist := sr.LevelSetCounts(ver)
		total := 0
		for _, n := range dist {
			total += n
		}
		if total != len(sets) {
			t.Errorf("%s: distribution total %d != unique violations %d", ver, total, len(sets))
		}
		var unique int
		for _, c := range sr.UniqueByConjecture(ver) {
			unique += c
		}
		if unique != len(sets) {
			t.Errorf("%s: conjecture rollup %d != unique violations %d", ver, unique, len(sets))
		}
	}
	keys := pokeholes.SortedLevelSetKeys(sr.LevelSetCounts("trunk"))
	for i := 1; i < len(keys); i++ {
		if sr.LevelSetCounts("trunk")[keys[i-1]] < sr.LevelSetCounts("trunk")[keys[i]] {
			t.Error("SortedLevelSetKeys not in descending count order")
		}
	}
}

// TestMatrixValidation covers the error paths of Sweep and matrix-mode
// campaigns.
func TestMatrixValidation(t *testing.T) {
	eng := pokeholes.NewEngine()
	ctx := context.Background()
	prog := pokeholes.GenerateProgram(1)
	bad := []pokeholes.Matrix{
		{Family: "frobnicator"},
		{Family: pokeholes.GC, Versions: []string{"v99"}},
		{Family: pokeholes.GC, Levels: []string{"O7"}},
		{Family: pokeholes.CL, Levels: []string{"O1"}}, // O1 is gc-only
		{Family: pokeholes.GC, Versions: []string{"trunk", "v8", "trunk"}},
		{Family: pokeholes.GC, Levels: []string{"O2", "O2"}},
	}
	for _, mx := range bad {
		if _, err := eng.Sweep(ctx, prog, mx); err == nil {
			t.Errorf("matrix %+v: expected error", mx)
		}
		if _, err := eng.Campaign(ctx, pokeholes.CampaignSpec{Matrix: &mx, N: 1}); err == nil {
			t.Errorf("campaign matrix %+v: expected error", mx)
		}
	}
	// Defaults fill in: an empty matrix of a valid family is the full grid.
	sr, err := eng.Sweep(ctx, prog, pokeholes.Matrix{Family: pokeholes.GC})
	if err != nil {
		t.Fatal(err)
	}
	want := len(pokeholes.Versions(pokeholes.GC)) * len(pokeholes.OptLevels(pokeholes.GC))
	if len(sr.Configs) != want {
		t.Errorf("defaulted matrix has %d configs, want %d", len(sr.Configs), want)
	}
}

// TestWithStepBudget pins the end-to-end budget plumbing: a starvation
// budget makes every check fail with the VM's step-limit error, and the
// default budget succeeds on the same program.
func TestWithStepBudget(t *testing.T) {
	ctx := context.Background()
	prog := pokeholes.GenerateProgram(7)
	cfg := pokeholes.Config{Family: pokeholes.GC, Version: "trunk", Level: "O2"}
	starved := pokeholes.NewEngine(pokeholes.WithStepBudget(1))
	if _, err := starved.Check(ctx, prog, cfg); err == nil {
		t.Fatal("1-step budget succeeded")
	} else if !strings.Contains(err.Error(), "step limit") {
		t.Fatalf("unexpected error: %v", err)
	}
	if _, err := pokeholes.NewEngine().Check(ctx, prog, cfg); err != nil {
		t.Fatalf("default budget failed: %v", err)
	}
	// The budget holds through the sweep path too.
	if _, err := starved.Sweep(ctx, prog, pokeholes.FullMatrix(pokeholes.GC)); err == nil {
		t.Error("starved sweep succeeded")
	}
}
