package opt_test

import (
	"fmt"
	"testing"

	"repro/internal/compiler"
	"repro/internal/fuzzgen"
	"repro/internal/ir"
	"repro/internal/opt"
)

// refDominators is the reference dominance oracle: the classic iterative
// dataflow over dominator sets. The returned map gives, for each block, the
// set of blocks that dominate it (including itself). Unreachable blocks keep
// the full set: dominance over dead code is vacuous, and it keeps the meet
// over their reachable successors unconstrained.
func refDominators(fn *ir.Func) map[*ir.Block]map[*ir.Block]bool {
	blocks := fn.Blocks
	if len(blocks) == 0 {
		return nil
	}
	entry := fn.Entry()
	dom := map[*ir.Block]map[*ir.Block]bool{}
	dom[entry] = map[*ir.Block]bool{entry: true}
	for _, b := range blocks {
		if b != entry {
			s := map[*ir.Block]bool{}
			for _, k := range blocks {
				s[k] = true
			}
			dom[b] = s
		}
	}
	reach := fn.Reachable()
	preds := fn.Preds()
	for changed := true; changed; {
		changed = false
		for _, b := range blocks {
			if b == entry || !reach[b] {
				continue
			}
			var meet map[*ir.Block]bool
			for _, p := range preds[b] {
				if meet == nil {
					meet = map[*ir.Block]bool{}
					for k := range dom[p] {
						meet[k] = true
					}
					continue
				}
				for k := range meet {
					if !dom[p][k] {
						delete(meet, k)
					}
				}
			}
			if meet == nil {
				meet = map[*ir.Block]bool{}
			}
			meet[b] = true
			same := len(meet) == len(dom[b])
			for k := range meet {
				same = same && dom[b][k]
			}
			if !same {
				dom[b] = meet
				changed = true
			}
		}
	}
	return dom
}

// domChecker compares opt.DomTree against refDominators on every block
// pair of the functions it is shown.
type domChecker struct {
	t       *testing.T
	where   string
	cfgs    int
	unreach int
}

func (c *domChecker) checkFunc(fn *ir.Func, when string) {
	c.t.Helper()
	ref := refDominators(fn)
	tree := opt.NewDomTree(fn)
	reach := fn.Reachable()
	c.cfgs++
	if len(reach) < len(fn.Blocks) {
		c.unreach++
	}
	for _, a := range fn.Blocks {
		for _, b := range fn.Blocks {
			if got, want := tree.Dominates(a, b), ref[b][a]; got != want {
				c.t.Fatalf("%s, %s, func %s: Dominates(b%d, b%d) = %v, reference %v\n%s",
					c.where, when, fn.Name, a.ID, b.ID, got, want, fn)
			}
		}
	}
}

func (c *domChecker) checkModule(m *ir.Module, when string) {
	c.t.Helper()
	for _, f := range m.Funcs {
		if !f.Opaque {
			c.checkFunc(f, when)
		}
	}
}

// checkedPass checks the function's dominator tree before the function
// pass it wraps runs.
type checkedPass struct {
	opt.Pass
	c *domChecker
}

func (p checkedPass) Run(fn *ir.Func, ctx *opt.Context) bool {
	p.c.checkFunc(fn, "before "+p.Name())
	return p.Pass.Run(fn, ctx)
}

// checkedModulePass checks every function's dominator tree before the
// module pass it wraps runs.
type checkedModulePass struct {
	opt.ModulePass
	c *domChecker
}

func (p checkedModulePass) RunModule(ctx *opt.Context) bool {
	p.c.checkModule(ctx.Mod, "before "+p.Name())
	return p.ModulePass.RunModule(ctx)
}

// TestDomTreeMatchesReference pins opt.DomTree to the reference dataflow on
// the CFGs the pipelines actually produce: for fuzzgen seeds 1..25 under
// every gc and cl (version, level), dominance of every block pair must agree
// before each pass execution and once after the pipeline.
func TestDomTreeMatchesReference(t *testing.T) {
	var configs []compiler.Config
	for _, v := range compiler.GCVersions {
		for _, l := range compiler.GCLevels {
			configs = append(configs, compiler.Config{Family: compiler.GC, Version: v, Level: l})
		}
	}
	for _, v := range compiler.CLVersions {
		for _, l := range compiler.CLLevels {
			configs = append(configs, compiler.Config{Family: compiler.CL, Version: v, Level: l})
		}
	}
	c := &domChecker{t: t}
	for seed := int64(1); seed <= 25; seed++ {
		m, err := compiler.Frontend(fuzzgen.GenerateSeed(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, cfg := range configs {
			c.where = fmt.Sprintf("seed %d %s", seed, cfg)
			var passes []opt.Pass
			for _, p := range compiler.Pipeline(cfg) {
				if mp, ok := p.(opt.ModulePass); ok {
					passes = append(passes, checkedModulePass{mp, c})
				} else {
					passes = append(passes, checkedPass{p, c})
				}
			}
			clone := m.Clone()
			opt.RunPipeline(clone, passes, opt.Options{
				BisectLimit: -1, Defects: compiler.ActiveDefects(cfg), Level: cfg.Level})
			c.checkModule(clone, "after the pipeline")
		}
	}
	t.Logf("checked %d CFGs (%d with unreachable blocks)", c.cfgs, c.unreach)
}
