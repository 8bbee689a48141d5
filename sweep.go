package pokeholes

// This file implements the configuration-matrix API: Engine.Sweep checks
// one program across a whole version × level grid of a family while
// sharing every configuration-invariant artifact — the lowered IR module
// (frontend runs once per program), the static-analysis facts, and the
// per-version O0 reference traces of the quantitative study. Configs fan
// out over the engine's worker pool; results land at their config index,
// so aggregation is deterministic at any parallelism.

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"repro/internal/compiler"
	"repro/internal/conjecture"
	"repro/internal/metrics"
	"repro/internal/minic"
)

// Versions returns a family's releases, oldest first.
func Versions(f Family) []string {
	vs := compiler.GCVersions
	if f == CL {
		vs = compiler.CLVersions
	}
	return append([]string(nil), vs...)
}

// Levels returns all of a family's optimization levels, including O0.
func Levels(f Family) []string {
	ls := compiler.GCLevels
	if f == CL {
		ls = compiler.CLLevels
	}
	return append([]string(nil), ls...)
}

// Matrix describes a version × level configuration grid of one family.
// The zero values of Versions and Levels mean "every version" and "every
// optimizing level" respectively.
type Matrix struct {
	Family Family
	// Versions to check, oldest first (default: all of the family's).
	Versions []string
	// Levels to check (default: OptLevels, i.e. everything but O0).
	Levels []string
	// Measure also computes the §2 metrics of every configuration against
	// its version's O0 reference build, recorded once per version.
	Measure bool
}

// FullMatrix is the family's complete version × optimizing-level grid.
func FullMatrix(f Family) Matrix {
	return Matrix{Family: f, Versions: Versions(f), Levels: OptLevels(f)}
}

// withDefaults fills the empty dimensions.
func (m Matrix) withDefaults() Matrix {
	if len(m.Versions) == 0 {
		m.Versions = Versions(m.Family)
	}
	if len(m.Levels) == 0 {
		m.Levels = OptLevels(m.Family)
	}
	return m
}

// validate rejects unknown families, versions and levels, and any version
// or level listed twice: the grid has one cell per pair, so a repeated
// dimension would only multiply the work (and the reply) of one request.
func (m Matrix) validate() error {
	if m.Family != GC && m.Family != CL {
		return fmt.Errorf("pokeholes: unknown family %q", m.Family)
	}
	seen := map[string]bool{}
	for _, v := range m.Versions {
		if (Config{Family: m.Family, Version: v}).VersionIndex() < 0 {
			return fmt.Errorf("pokeholes: unknown version %q for family %s", v, m.Family)
		}
		if seen[v] {
			return fmt.Errorf("pokeholes: version %q listed twice", v)
		}
		seen[v] = true
	}
	known := map[string]bool{}
	for _, l := range Levels(m.Family) {
		known[l] = true
	}
	seen = map[string]bool{}
	for _, l := range m.Levels {
		if !known[l] {
			return fmt.Errorf("pokeholes: unknown level %q for family %s", l, m.Family)
		}
		if seen[l] {
			return fmt.Errorf("pokeholes: level %q listed twice", l)
		}
		seen[l] = true
	}
	return nil
}

// Configs returns the matrix's configurations in deterministic
// version-major, level-minor order (the order Sweep reports in).
func (m Matrix) Configs() []Config {
	m = m.withDefaults()
	out := make([]Config, 0, len(m.Versions)*len(m.Levels))
	for _, v := range m.Versions {
		for _, l := range m.Levels {
			out = append(out, Config{Family: m.Family, Version: v, Level: l})
		}
	}
	return out
}

// SweepResult is one program checked across a whole configuration matrix.
type SweepResult struct {
	Matrix  Matrix
	Configs []Config
	// Reports[i] is the Check report of Configs[i]. Each report is
	// identical to what Engine.Check would return for that configuration.
	Reports []*Report
	// Metrics[i] is Configs[i]'s §2 metrics (non-nil iff Matrix.Measure).
	Metrics []Metrics
}

// Report returns the report of one matrix configuration, or nil.
func (s *SweepResult) Report(cfg Config) *Report {
	for i, c := range s.Configs {
		if c == cfg {
			return s.Reports[i]
		}
	}
	return nil
}

// Violations returns the violations of one (version, level) cell, or nil
// when the cell is outside the matrix.
func (s *SweepResult) Violations(version, level string) []Violation {
	r := s.Report(Config{Family: s.Matrix.Family, Version: version, Level: level})
	if r == nil {
		return nil
	}
	return r.Violations
}

// LevelSets rolls one version's violations up by the exact set of matrix
// levels each unique violation reproduces at — the Venn decomposition
// behind the paper's Figures 2 and 3. Every matrix level participates;
// the paper's figures exclude Oz, so reproduce them with a matrix whose
// Levels omit it (experiments.LevelSetDistribution does exactly that).
// Keys are violation keys; values are level lists in matrix order.
func (s *SweepResult) LevelSets(version string) map[string][]string {
	mx := s.Matrix.withDefaults()
	out := map[string][]string{}
	for _, level := range mx.Levels {
		for _, v := range s.Violations(version, level) {
			out[v.Key()] = append(out[v.Key()], level)
		}
	}
	return out
}

// LevelSetCounts collapses LevelSets into a distribution: "Og+O2+O3" → how
// many unique violations reproduce at exactly that level set.
func (s *SweepResult) LevelSetCounts(version string) map[string]int {
	out := map[string]int{}
	for _, levels := range s.LevelSets(version) {
		key := ""
		for _, l := range levels {
			if key != "" {
				key += "+"
			}
			key += l
		}
		out[key]++
	}
	return out
}

// UniqueByConjecture returns, for one version, the number of distinct
// violations of each conjecture across all matrix levels (the Table 4
// rollup).
func (s *SweepResult) UniqueByConjecture(version string) [3]int {
	mx := s.Matrix.withDefaults()
	seen := map[string]bool{}
	var counts [3]int
	for _, level := range mx.Levels {
		for _, v := range s.Violations(version, level) {
			if !seen[v.Key()] {
				seen[v.Key()] = true
				counts[v.Conjecture-1]++
			}
		}
	}
	return counts
}

// SortedLevelSetKeys returns the distribution keys of LevelSetCounts in
// descending count order (name-ascending tiebreak), for stable rendering.
func SortedLevelSetKeys(dist map[string]int) []string {
	keys := make([]string, 0, len(dist))
	for k := range dist {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if dist[keys[i]] != dist[keys[j]] {
			return dist[keys[i]] > dist[keys[j]]
		}
		return keys[i] < keys[j]
	})
	return keys
}

// Sweep checks prog against every configuration of the matrix, sharing the
// frontend (lowered exactly once per program), the analysis facts, and —
// when measuring — the per-version O0 reference traces. Per-config work
// fans out over the engine's worker pool; Reports are ordered like
// Matrix.Configs, so identical matrices yield identical results at any
// worker count. Every report is byte-identical to an Engine.Check of the
// same configuration.
func (e *Engine) Sweep(ctx context.Context, prog *minic.Program, mx Matrix) (*SweepResult, error) {
	return e.sweep(ctx, prog, mx, e.workers)
}

// sweep is Sweep with an explicit worker bound. Matrix-mode campaigns run
// it with one worker per job: the campaign pool already saturates
// WithWorkers, so fanning configs out again would run up to workers²
// concurrent jobs.
func (e *Engine) sweep(ctx context.Context, prog *minic.Program, mx Matrix, workers int) (*SweepResult, error) {
	mx = mx.withDefaults()
	if err := mx.validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	configs := mx.Configs()

	// Stage 1, once per program: frontend and facts. The module is passed
	// down to every per-config job, so the sharing holds even when the
	// engine cache is disabled.
	mod, err := e.frontend(ctx, prog)
	if err != nil {
		return nil, err
	}
	facts, err := e.facts(ctx, prog)
	if err != nil {
		return nil, err
	}
	// Computed once, before the fan-out, so the per-configuration workers
	// share one rendering instead of each re-rendering the program.
	srcKey := sourceKey(prog)

	// O0 reference traces, one per version, recorded before the fan-out so
	// level workers of the same version share rather than race. Each
	// trace is the family debugger's view of the config's single-pass
	// session (view 0 of its MultiTrace).
	var refs map[string]*Trace
	if mx.Measure {
		refs = make(map[string]*Trace, len(mx.Versions))
		for _, ver := range mx.Versions {
			refCfg := Config{Family: mx.Family, Version: ver, Level: "O0"}
			ref, err := e.traceFrom(ctx, mod, srcKey, prog, refCfg)
			if err != nil {
				return nil, err
			}
			refs[ver] = ref.Views[0]
		}
	}

	res := &SweepResult{Matrix: mx, Configs: configs, Reports: make([]*Report, len(configs))}
	if mx.Measure {
		res.Metrics = make([]Metrics, len(configs))
	}

	// Stages 2+3 per config: optimize, codegen, trace, check. Indexed
	// writes need no reorder buffer; the slice is the deterministic order.
	if workers > len(configs) {
		workers = len(configs)
	}
	if workers < 1 {
		workers = 1
	}
	errs := make([]error, len(configs))
	idxCh := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idxCh {
				errs[i] = func() error {
					if err := ctx.Err(); err != nil {
						return err
					}
					cfg := configs[i]
					mt, err := e.traceFrom(ctx, mod, srcKey, prog, cfg)
					if err != nil {
						return err
					}
					tr := mt.Views[0]
					res.Reports[i] = &Report{Config: cfg, Trace: tr,
						Violations: conjecture.CheckAll(facts, tr)}
					if mx.Measure {
						res.Metrics[i] = metrics.Compute(tr, refs[cfg.Version])
					}
					return nil
				}()
			}
		}()
	}
	for i := range configs {
		idxCh <- i
	}
	close(idxCh)
	wg.Wait()
	// First error in config order, so failures are as deterministic as
	// successes.
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}
