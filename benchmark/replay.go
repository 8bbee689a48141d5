package main

// The traced replay. It sends a fixed, seeded share of a workload's own
// inputs through the layer packages' public functions on one goroutine,
// with a span around every call, and so gives each layer's self time per
// op. It skips the engine's caches on purpose: its numbers say what one
// call into each layer costs, while the untraced run's work counters say
// how many calls the engine actually made. The replay runs three times:
// once untimed, so the process's cold-start costs fall on no measured
// replay, then with spans off and with spans on; the difference of the
// last two is the tracing overhead.

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"sync"
	"time"

	pokeholes "repro"
	"repro/internal/analysis"
	"repro/internal/compiler"
	"repro/internal/conjecture"
	"repro/internal/container"
	"repro/internal/corpus"
	"repro/internal/debugger"
	"repro/internal/fuzzgen"
	"repro/internal/ir"
	"repro/internal/minic"
	"repro/internal/reduce"
	"repro/internal/triage"
	"repro/internal/vm"
)

const (
	// replayServeRequests is the replay's size in requests.
	replayServeRequests = 200
	// replayViolations caps the violations the bug loop triages per
	// program and family, replayServeTriages those it triages in a whole
	// serve replay, and replayReductions the buckets it minimizes per
	// replay, so the replay's length does not hinge on a few
	// violation-rich programs.
	replayViolations   = 4
	replayServeTriages = 8
	replayReductions   = 1
)

// replayLayers are the layers the replay reports, in print order.
var replayLayers = []string{
	"fuzzgen", "minic", "analysis", "frontend", "opt", "codegen",
	"debugger.plan", "debugger.record", "vm", "conjecture", "triage",
	"reduce", "corpus", "container", "serve.handler", "http.client",
}

// replayResult is one workload's replay with spans on, plus the wall
// time of the same replay with spans off.
type replayResult struct {
	ops     int
	wallOn  time.Duration
	wallOff time.Duration
	rec     *recorder
	off     *recorder // the spans-off replay, for its call counts
	path    string    // where the spans were written
}

func replay(name string, rc runConfig) (*replayResult, error) {
	// The stream is generated once, outside the timed replays.
	in, err := makeServeInputs(rc.seed, rc.seconds, serveMixes[name])
	if err != nil {
		return nil, err
	}
	run := func(r *recorder) (int, error) { return replayServe(r, rc, in) }
	if _, err := run(newRecorder(false)); err != nil {
		return nil, err
	}
	off := newRecorder(false)
	t0 := time.Now()
	if _, err := run(off); err != nil {
		return nil, err
	}
	wallOff := time.Since(t0)
	on := newRecorder(true)
	t0 = time.Now()
	ops, err := run(on)
	if err != nil {
		return nil, err
	}
	res := &replayResult{ops: ops, wallOn: time.Since(t0), wallOff: wallOff, rec: on, off: off}
	res.path = filepath.Join(rc.workdir, fmt.Sprintf("%s-seed%d.spans.jsonl", name, rc.seed))
	if err := on.write(res.path); err != nil {
		return nil, err
	}
	return res, nil
}

// into adds the replay's per-layer metrics, and marks in exact the call
// counters that both replays of the run read the same.
func (rp *replayResult) into(m map[string]metric, exact map[string]bool) {
	totals, covered := rp.rec.totals()
	ops := float64(rp.ops)
	for _, l := range replayLayers {
		t := totals[l]
		if t == nil {
			t = &layerTotals{}
		}
		if l == "http.client" {
			m["http.client_ms"] = metric{ratio(float64(t.selfNS)/1e6, ops), "ms"}
			continue
		}
		m[l+".self_ms_per_op"] = metric{ratio(float64(t.selfNS)/1e6, ops), "ms"}
		m[l+".calls_per_op"] = metric{ratio(float64(t.calls), ops), "count"}
		exact[l+".calls_per_op"] = rp.off.calls[l] == t.calls
	}
	m["replay.wall_ms"] = metric{ms(rp.wallOn), "ms"}
	m["replay.overhead_ms"] = metric{ms(rp.wallOn - rp.wallOff), "ms"}
	m["replay.uncovered_frac"] = metric{ratio(float64(rp.wallOn.Nanoseconds()-covered), float64(rp.wallOn.Nanoseconds())), "frac"}
}

func printReplay(name string, rp *replayResult) {
	totals, _ := rp.rec.totals()
	names := make([]string, 0, len(totals))
	for n := range totals {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("replay %s: %d ops, %.1f ms with spans, %.1f ms without, %d spans in %s\n",
		name, rp.ops, ms(rp.wallOn), ms(rp.wallOff), len(rp.rec.spans), rp.path)
	for _, n := range names {
		fmt.Printf("  %-16s %6d calls %10.2f ms self\n", n, totals[n].calls, float64(totals[n].selfNS)/1e6)
	}
}

// layers wraps every layer call of the replay in a span.
type layers struct{ r *recorder }

func (l layers) render(p *minic.Program) string {
	defer l.r.begin("minic")()
	return minic.Render(p)
}

func (l layers) parse(src string) (*minic.Program, error) {
	defer l.r.begin("minic")()
	return pokeholes.ParseProgram(src)
}

func (l layers) analyze(p *minic.Program) *analysis.Facts {
	defer l.r.begin("analysis")()
	return analysis.Analyze(p)
}

// compile is the staged compiler with a span per stage; it is also the
// Target.Compile hook triage and reduce are given, so their probe
// compiles appear as child spans.
func (l layers) compile(p *minic.Program, cfg compiler.Config, o compiler.Options) (*compiler.Result, error) {
	end := l.r.begin("frontend")
	mod, err := compiler.Frontend(p)
	end()
	if err != nil {
		return nil, err
	}
	return l.compileFrom(mod, cfg, o)
}

func (l layers) compileFrom(mod *ir.Module, cfg compiler.Config, o compiler.Options) (*compiler.Result, error) {
	end := l.r.begin("opt")
	optimized, pr, err := compiler.Optimize(mod, cfg, o)
	end()
	if err != nil {
		return nil, err
	}
	end = l.r.begin("codegen")
	exe, err := compiler.Codegen(optimized, cfg, o)
	end()
	if err != nil {
		return nil, err
	}
	return &compiler.Result{Exe: exe, Mod: optimized, PipelineExecutions: pr.Executions, Applied: pr.Applied}, nil
}

// check is one cell of the checking pipeline after compilation: the
// container round trip of the build, stop planning, the recorded
// session, a plain VM run of the same executable, and the conjectures.
func (l layers) check(res *compiler.Result, cfg compiler.Config, facts *analysis.Facts) ([]conjecture.Violation, error) {
	end := l.r.begin("container")
	data := container.Encode(&container.Artifact{Exe: res.Exe, Prov: container.Provenance{Family: string(cfg.Family), Version: cfg.Version, Level: cfg.Level},
		PipelineExecutions: res.PipelineExecutions, Applied: res.Applied})
	_, err := container.Decode(data)
	end()
	if err != nil {
		return nil, fmt.Errorf("container round trip %s: %v", cfg, err)
	}
	end = l.r.begin("debugger.plan")
	_, err = debugger.PlanStops(res.Exe)
	end()
	if err != nil {
		return nil, err
	}
	other := pokeholes.CL
	if cfg.Family == pokeholes.CL {
		other = pokeholes.GC
	}
	end = l.r.begin("debugger.record")
	rec, err := debugger.NewRecorder(res.Exe, debugger.RecordOpts{}, pokeholes.NativeDebugger(cfg.Family), pokeholes.NativeDebugger(other))
	var mt *debugger.MultiTrace
	if err == nil {
		mt, err = rec.Run()
	}
	end()
	if err != nil {
		return nil, err
	}
	end = l.r.begin("vm")
	m, err := vm.New(res.Exe.Prog)
	if err == nil {
		err = m.Run()
	}
	end()
	if err != nil {
		return nil, err
	}
	defer l.r.begin("conjecture")()
	return conjecture.CheckAll(facts, mt.Views[0]), nil
}

// cells compiles and checks prog under every configuration from one
// lowered module, as a sweep does.
func (l layers) cells(p *minic.Program, facts *analysis.Facts, cfgs []compiler.Config) ([][]conjecture.Violation, error) {
	end := l.r.begin("frontend")
	mod, err := compiler.Frontend(p)
	end()
	if err != nil {
		return nil, err
	}
	out := make([][]conjecture.Violation, len(cfgs))
	for i, cfg := range cfgs {
		res, err := l.compileFrom(mod, cfg, compiler.Options{})
		if err != nil {
			return nil, err
		}
		if out[i], err = l.check(res, cfg, facts); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// bugLoop is Engine.Hunt's work after checking: triage and schedule
// reduction of each violation, bucketing into a corpus, minimization of
// a new bucket's exemplar, and the corpus checkpoint encoding.
type bugLoop struct {
	l          layers
	c          *corpus.Corpus
	triages    int // left to run; negative means no limit
	reductions int
}

// bucket runs the bug loop over the first replayViolations
// violations of one program's checked configurations.
func (bl *bugLoop) bucket(p *minic.Program, src string, facts *analysis.Facts, cfgs []compiler.Config, viols [][]conjecture.Violation) error {
	r := bl.l.r
	triaged := 0
	for ci, vs := range viols {
		cfg := cfgs[ci]
		for _, v := range vs {
			if triaged == replayViolations || bl.triages == 0 {
				break
			}
			triaged++
			bl.triages--
			tg := triage.Target{Prog: p, Facts: facts, Cfg: cfg, Key: v.Key(), Compile: bl.l.compile,
				Debugger: pokeholes.NativeDebugger(cfg.Family)}
			end := r.begin("triage")
			culprit, terr := triage.Culprit(tg)
			if terr != nil {
				culprit = "" // not controllable by a single knob
			}
			sched := ""
			if red, err := triage.ScheduleReduce(tg); err == nil {
				sched = red.Schedule.String()
			}
			end()
			sig := corpus.SignatureOf(v, culprit, sched)
			end = r.begin("corpus")
			b, seen := bl.c.Bucket(sig)
			var err error
			if seen {
				bl.c.CountViolation(b)
			} else {
				name := culprit
				if name == "" {
					name = "untriaged"
				}
				b = &corpus.Bucket{Sig: sig, Conjecture: v.Conjecture, Culprit: name, Shape: corpus.Shape(v),
					Schedule: sched, Config: cfg.String(), Family: string(cfg.Family), Version: cfg.Version,
					Level: cfg.Level, Var: v.Var, Line: v.Line, Exemplar: src, Count: 1}
				err = bl.c.Add(b)
			}
			end()
			if err != nil {
				return err
			}
			if !seen && bl.reductions < replayReductions {
				bl.reductions++
				pred := reduce.ViolationPredicateWith(cfg, v.Conjecture, v.Var, culprit, bl.l.compile,
					pokeholes.NativeDebugger(cfg.Family), 0)
				end := r.begin("reduce")
				small := reduce.Reduce(p, pred)
				end()
				b.Exemplar = bl.l.render(small)
				b.Minimized = true
			}
		}
	}
	defer r.begin("corpus")()
	var buf bytes.Buffer
	return bl.c.Encode(&buf)
}

// handlerTimer wraps the server's handler and times each request.
type handlerTimer struct {
	h          http.Handler
	mu         sync.Mutex
	start, end time.Time // of the last request handled
}

func (t *handlerTimer) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	start := time.Now()
	t.h.ServeHTTP(w, req)
	end := time.Now()
	t.mu.Lock()
	t.start, t.end = start, end
	t.mu.Unlock()
}

// last returns the interval of the last request handled.
func (t *handlerTimer) last() (time.Time, time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.start, t.end
}

// replayServe sends the first requests of the window to a fresh server,
// then replays each through the layers as the server's cells would run.
// No workload hunts, so the replay also runs the hunt's bug loop (triage,
// reduce, corpus) on the violations its requests show: that keeps those
// layers measured on every traced run.
func replayServe(r *recorder, rc runConfig, in *serveInputs) (int, error) {
	l := layers{r}
	bl := &bugLoop{l: l, c: corpus.New(), triages: replayServeTriages}
	timer := &handlerTimer{h: pokeholes.NewEngine(pokeholes.WithWorkers(rc.workers)).NewServer(pokeholes.ServeSpec{}).Handler()}
	ts := httptest.NewServer(timer)
	defer ts.Close()
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	defer client.CloseIdleConnections()
	reqs := in.stream[serveWarmup : serveWarmup+replayServeRequests]
	for i, req := range reqs {
		r.setOp(i)
		end := r.begin("http.client")
		resp, err := client.Post(ts.URL+req.path, "application/json", bytes.NewReader(req.body))
		if err == nil {
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		if err == nil {
			hs, he := timer.last()
			r.add("serve.handler", hs, he)
		}
		end()
		if err != nil {
			return 0, err
		}

		if req.prog >= in.goldens {
			end := r.begin("fuzzgen")
			fuzzgen.GenerateSeed(in.seeds[req.prog])
			end()
		}
		p, err := l.parse(in.srcs[req.prog])
		if err != nil {
			return 0, err
		}
		facts := l.analyze(p)
		cfgs := []compiler.Config{req.cfg}
		if req.path == "/sweep" {
			mx := pokeholes.Matrix{Family: pokeholes.GC, Versions: goldenSweep.Versions, Levels: goldenSweep.Levels}
			cfgs = mx.Configs()
		}
		viols, err := l.cells(p, facts, cfgs)
		if err != nil {
			return 0, err
		}
		if err := bl.bucket(p, in.srcs[req.prog], facts, cfgs, viols); err != nil {
			return 0, err
		}
	}
	return len(reqs), nil
}
