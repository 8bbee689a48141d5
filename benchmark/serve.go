package main

// The serve workloads: Engine.NewServer(ServeSpec{}).Handler() on a
// loopback httptest listener, driven closed-loop by one client per CPU,
// each on its own connection, each sending its next request only after
// the previous reply arrived. The seeded request stream holds POST /check
// (gc or cl trunk at each optimizing level) and, in serve, POST /sweep
// over the golden 2x2 matrix; every golden program is checked and swept
// early in the window. Fresh requests take the pool's programs in turn,
// each once, so any stretch of the stream keeps the length mix of the
// pool's rounds (see inputs.go). In serve, 60% of the requests re-send a
// recent (program, endpoint, configuration); in serve-cold none do (see
// serveMix). The measured share of repeats is printed with the inputs. An
// untimed prefix of the stream warms the server first. One op is one
// request.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	pokeholes "repro"
)

const (
	goldenDir = "testdata/golden"
	// serveWarmup is the untimed prefix of the stream.
	serveWarmup = 48
	// serveRecent is how many of the latest distinct requests a re-sent
	// request is drawn from: few enough that the server's response cache
	// (pokeholes.DefaultResponseCache entries) still holds them, so a
	// re-sent request exercises the cache's hit path, not its eviction.
	serveRecent = 256
	// serveReferenceSample is how many distinct non-golden requests of
	// the window are re-answered by the reference engine, drawn among the
	// first serveReferenceWithin of them.
	serveReferenceSample = 10
	serveReferenceWithin = 200
)

// goldenSweep is the golden fixtures' sweep matrix.
var goldenSweep = pokeholes.SweepRequest{Family: "gc", Versions: []string{"v8", "trunk"}, Levels: []string{"O1", "O2"}}

// request is one distinct request of the stream.
type request struct {
	path string // "/check" or "/sweep"
	body []byte
	key  string // (program, endpoint, configuration)
	prog int    // index into the program pool
	cfg  pokeholes.Config
	want []byte // the golden body, for golden programs
}

// serveInputs is the program pool and request stream of one run.
type serveInputs struct {
	srcs    []string // request sources
	seeds   []int64  // fuzzer seeds, parallel to srcs (0 for golden programs)
	fns     []int    // numbers of functions, parallel to srcs
	goldens int      // the first goldens programs of the pool are the golden ones
	stream  []*request
	repeat  []bool // the stream's request occurred earlier in the stream
}

func loadGoldens() ([]string, [][2][]byte, error) {
	srcs, err := filepath.Glob(filepath.Join(goldenDir, "*.mc"))
	if err != nil || len(srcs) == 0 {
		return nil, nil, fmt.Errorf("no golden programs under %s: %v", goldenDir, err)
	}
	var out []string
	var want [][2][]byte
	for _, p := range srcs {
		src, err := os.ReadFile(p)
		if err != nil {
			return nil, nil, err
		}
		base := strings.TrimSuffix(p, ".mc")
		check, err := os.ReadFile(base + ".check.json")
		if err != nil {
			return nil, nil, err
		}
		sweep, err := os.ReadFile(base + ".sweep.ndjson")
		if err != nil {
			return nil, nil, err
		}
		out = append(out, string(src))
		want = append(want, [2][]byte{check, sweep})
	}
	return out, want, nil
}

// serveMix is a serve workload's traffic: the chance a request re-sends
// an earlier one, the program pool's size per second of window (sized
// well above what a window uses), and how often a fresh request is a
// /sweep (every sweepEvery-th of its length class; 0: never).
type serveMix struct {
	repeatShare       float64
	programsPerSecond int
	sweepEvery        int
}

var (
	// serveWarm re-sends 60% of its requests, so the response cache
	// answers most of them and the median request is a hit.
	serveWarm = serveMix{repeatShare: 0.6, programsPerSecond: 200, sweepEvery: 5}
	// serveCold sends every request once, so each misses the response
	// cache and compiles. Its fresh requests are all /checks: a /sweep of
	// one of the longest programs holds both CPUs for tens of seconds.
	serveCold = serveMix{programsPerSecond: 300}

	serveMixes = map[string]serveMix{"serve": serveWarm, "serve-cold": serveCold}
)

func makeServeInputs(seed int64, seconds int, mix serveMix) (*serveInputs, error) {
	gsrcs, gwant, err := loadGoldens()
	if err != nil {
		return nil, err
	}
	in := &serveInputs{goldens: len(gsrcs)}
	srcs := append([]string(nil), gsrcs...)
	var classes []int // the length class of each program after the goldens
	for _, s := range gsrcs {
		p, err := pokeholes.ParseProgram(s)
		if err != nil {
			return nil, fmt.Errorf("golden program: %v", err)
		}
		in.fns = append(in.fns, len(p.Funcs))
		in.seeds = append(in.seeds, 0)
	}
	for _, p := range programPool(seed, mix.programsPerSecond*seconds) {
		in.fns = append(in.fns, p.fns)
		srcs = append(srcs, p.src)
		in.seeds = append(in.seeds, p.seed)
		classes = append(classes, p.class)
	}
	in.srcs = srcs
	rng := rand.New(rand.NewSource(seed))
	// Fresh requests are /sweeps over the golden matrix or /checks at
	// trunk. Long programs cost the most, so a seed that drew the kind and
	// configuration at random could change the run's cost. Instead the
	// fresh requests of each length class walk in turn, from a seeded
	// phase, through the /sweep cycle and through every optimizing level
	// of both families, so every class holds each in its proportion. The
	// tail starts both walks at their beginning, so its programs get the
	// same kinds in every run.
	var cfgs []pokeholes.Config
	for _, fam := range []pokeholes.Family{pokeholes.GC, pokeholes.CL} {
		for _, l := range pokeholes.OptLevels(fam) {
			cfgs = append(cfgs, pokeholes.Config{Family: fam, Version: "trunk", Level: l})
		}
	}
	type turn struct{ sweep, check int }
	turns := make([]turn, len(lengthClasses))
	for c := range turns {
		if !isTail(c) {
			turns[c] = turn{rng.Intn(max(mix.sweepEvery, 1)), rng.Intn(len(cfgs))}
		}
	}

	// Each distinct request is built once; the stream points at it.
	build := func(prog int, sweep bool, cfg pokeholes.Config) *request {
		r := &request{prog: prog, cfg: cfg, key: fmt.Sprintf("check|%d|%s", prog, cfg), path: "/check"}
		var v any = pokeholes.CheckRequest{Source: srcs[prog], Family: string(cfg.Family), Version: cfg.Version, Level: cfg.Level}
		if sweep {
			sr := goldenSweep
			sr.Source = srcs[prog]
			r.path, r.key, v = "/sweep", fmt.Sprintf("sweep|%d", prog), sr
		}
		r.body, _ = json.Marshal(v) // plain structs of strings always marshal
		if prog < in.goldens {
			r.want = gwant[prog][0]
			if sweep {
				r.want = gwant[prog][1]
			}
		}
		return r
	}
	// fresh returns a request for the pool's next program, or nil once
	// the pool is used up.
	prog := in.goldens - 1
	fresh := func() *request {
		if prog++; prog == len(in.srcs) {
			return nil
		}
		t := &turns[classes[prog-in.goldens]]
		if t.sweep++; mix.sweepEvery > 0 && t.sweep%mix.sweepEvery == 0 {
			return build(prog, true, pokeholes.Config{})
		}
		t.check++
		return build(prog, false, cfgs[(t.check-1)%len(cfgs)])
	}
	// Every golden program is checked and swept early in the window.
	var goldenReqs []*request
	for g := 0; g < in.goldens; g++ {
		goldenReqs = append(goldenReqs, build(g, false, pokeholes.Config{Family: pokeholes.GC, Version: "trunk", Level: "O2"}), build(g, true, pokeholes.Config{}))
	}
	seen := map[*request]bool{}
	var distinct []*request
	// The stream ends where the pool does.
	for i := 0; ; i++ {
		var r *request
		switch {
		case i >= serveWarmup && (i-serveWarmup)%3 == 0 && (i-serveWarmup)/3 < len(goldenReqs):
			r = goldenReqs[(i-serveWarmup)/3]
		case len(distinct) > 0 && rng.Float64() < mix.repeatShare:
			recent := distinct[max(len(distinct)-serveRecent, 0):]
			r = recent[rng.Intn(len(recent))]
		default:
			r = fresh()
		}
		if r == nil {
			break
		}
		in.stream = append(in.stream, r)
		in.repeat = append(in.repeat, seen[r])
		if !seen[r] {
			seen[r] = true
			distinct = append(distinct, r)
		}
	}
	return in, nil
}

// reply is one answered request.
type reply struct {
	idx    int // stream position
	status int
	body   []byte
	lat    time.Duration
	err    error
}

// drive sends stream[from:to] closed-loop from the given clients until
// the stream ends or ctx is done. A request still in flight when ctx ends
// is cancelled and left out of the replies: it did not complete within
// the window.
func drive(ctx context.Context, url string, clients []*http.Client, stream []*request, from, to int) []reply {
	var next atomic.Int64
	next.Store(int64(from))
	out := make([][]reply, len(clients))
	var wg sync.WaitGroup
	for c, cl := range clients {
		wg.Add(1)
		go func(c int, cl *http.Client) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= to || ctx.Err() != nil {
					return
				}
				t0 := time.Now()
				rp := reply{idx: i}
				req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+stream[i].path, bytes.NewReader(stream[i].body))
				if err != nil {
					panic(err) // the method and a loopback URL are always valid
				}
				req.Header.Set("Content-Type", "application/json")
				resp, err := cl.Do(req)
				if err == nil {
					rp.status = resp.StatusCode
					rp.body, err = io.ReadAll(resp.Body)
					resp.Body.Close()
				}
				if ctx.Err() != nil {
					return
				}
				rp.lat, rp.err = time.Since(t0), err
				out[c] = append(out[c], rp)
			}
		}(c, cl)
	}
	wg.Wait()
	var all []reply
	for _, rs := range out {
		all = append(all, rs...)
	}
	return all
}

// serveRun runs one serve workload: set-up (inputs, engine, server,
// warm-up), the timed window, then the output checks.
func serveRun(rc runConfig, mix serveMix) *outcome {
	o := &outcome{}
	in, err := makeServeInputs(rc.seed, rc.seconds, mix)
	if err != nil {
		o.fail(1, "serve inputs: %v", err)
		o.attempted = 1
		return o
	}
	eng := pokeholes.NewEngine(pokeholes.WithWorkers(rc.workers))
	srv := eng.NewServer(pokeholes.ServeSpec{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	clients := make([]*http.Client, rc.workers)
	for c := range clients {
		clients[c] = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
		defer clients[c].CloseIdleConnections()
	}
	warm := drive(context.Background(), ts.URL, clients, in.stream, 0, serveWarmup)
	o.setup = time.Since(rc.start)

	w := openWindow(srv, eng)
	ctx, cancel := context.WithDeadline(context.Background(), w.start.Add(time.Duration(rc.seconds)*time.Second))
	timed := drive(ctx, ts.URL, clients, in.stream, serveWarmup, len(in.stream))
	cancel()
	w.close(o, int64(len(timed)))
	o.attempted = int64(len(timed))
	for _, r := range timed {
		o.lat = append(o.lat, r.lat)
		if r.idx == len(in.stream)-1 {
			o.note("WARN the request stream ran out before the window ended")
		}
	}
	o.failed += checkServe(o, rc, in, eng, warm, timed)

	repeats, sweeps := 0, 0
	requested := map[int]bool{}
	withViol := map[int]bool{}
	var fns, lines float64
	for _, r := range timed {
		req := in.stream[r.idx]
		if in.repeat[r.idx] {
			repeats++
		}
		if req.path == "/sweep" {
			sweeps++
		}
		if !requested[req.prog] {
			requested[req.prog] = true
			fns += float64(in.fns[req.prog])
			lines += float64(strings.Count(in.srcs[req.prog], "\n"))
		}
		if bytes.Contains(r.body, []byte(`"violations":[{`)) {
			withViol[req.prog] = true
		}
	}
	n := float64(len(requested))
	o.props = fmt.Sprintf("programs=%d mean_functions=%.2f mean_source_lines=%.1f share_with_violations=%.3f golden=%d requests=%d repeated_share=%.3f sweep_share=%.3f cells_per_request=1 (check) or %d (sweep) clients=%d",
		len(requested), ratio(fns, n), ratio(lines, n), ratio(float64(len(withViol)), n), in.goldens, len(timed),
		ratio(float64(repeats), float64(len(timed))), ratio(float64(sweeps), float64(len(timed))),
		len(goldenSweep.Versions)*len(goldenSweep.Levels), len(clients))
	return o
}

// checkServe checks every timed reply and returns how many failed:
// non-200 statuses, golden bodies that differ from the committed
// fixtures, bodies that differ from an earlier reply to the same request,
// a seeded sample of distinct requests re-answered by the reference
// engine, and the VM against the interpreter on a sample of /check cells.
func checkServe(o *outcome, rc runConfig, in *serveInputs, eng *pokeholes.Engine, warm, timed []reply) int64 {
	first := map[string][]byte{}
	for _, r := range append(append([]reply(nil), warm...), timed...) {
		if k := in.stream[r.idx].key; r.err == nil && r.status == http.StatusOK && first[k] == nil {
			first[k] = r.body
		}
	}
	bad := map[int]string{} // position in timed -> why
	goldenChecked := 0
	for i, r := range timed {
		req := in.stream[r.idx]
		switch {
		case r.err != nil:
			bad[i] = r.err.Error()
		case r.status != http.StatusOK:
			bad[i] = fmt.Sprintf("status %d: %s", r.status, bytes.TrimSpace(r.body))
		case req.want != nil && !bytes.Equal(r.body, req.want):
			bad[i] = "body differs from the golden fixture"
		case !bytes.Equal(r.body, first[req.key]):
			bad[i] = "body differs from an earlier reply to the same request"
		}
		if req.want != nil {
			goldenChecked++
		}
	}
	o.note("serve golden bodies: %d replies compared with testdata/golden", goldenChecked)

	// Distinct non-golden requests of the window, re-answered by the
	// reference engine's server with its response cache off.
	var keys []string
	byKey := map[string]*request{}
	for _, r := range timed {
		req := in.stream[r.idx]
		if _, ok := byKey[req.key]; !ok && req.want == nil {
			keys = append(keys, req.key)
			byKey[req.key] = req
		}
	}
	// Replies arrive in no fixed order; the sample is drawn in stream order.
	pos := map[string]int{}
	for i := len(in.stream) - 1; i >= 0; i-- {
		pos[in.stream[i].key] = i
	}
	sort.Slice(keys, func(a, b int) bool { return pos[keys[a]] < pos[keys[b]] })
	// Drawn among the first distinct requests, which every run reaches, so
	// one seed always checks the same ones.
	rng := rand.New(rand.NewSource(rc.seed))
	picked := sample(rng, keys[:min(len(keys), serveReferenceWithin)], serveReferenceSample)
	refMsg := make([]string, len(picked))
	parallel(len(picked), rc.workers, func(i int) {
		req := byKey[picked[i]]
		h := referenceEngine().NewServer(pokeholes.ServeSpec{ResponseCache: -1}).Handler()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, req.path, bytes.NewReader(req.body)))
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), first[req.key]) {
			refMsg[i] = fmt.Sprintf("reference engine answers status %d with a different body", rec.Code)
		}
	})
	wrongKey := map[string]string{}
	for i, msg := range refMsg {
		if msg != "" {
			wrongKey[picked[i]] = msg
		}
	}
	o.note("serve reference: %d of %d distinct requests re-answered by the reference engine", len(picked), len(keys))

	// The VM against the interpreter, on the /check cells of the sample,
	// for the program the server compiled: the one parsed from the
	// request's source.
	var cells []cell
	var cellKeys []string
	for _, k := range picked {
		req := byKey[k]
		if req.path != "/check" {
			continue
		}
		prog, err := pokeholes.ParseProgram(in.srcs[req.prog])
		if err != nil {
			wrongKey[k] = err.Error()
			continue
		}
		cells = append(cells, cell{prog: prog, cfg: req.cfg, op: len(cells)})
		cellKeys = append(cellKeys, k)
	}
	for i := range checkVM(context.Background(), o, eng, cells, vmObserve) {
		wrongKey[cellKeys[i]] = "vm disagrees with the interpreter"
	}
	for i, r := range timed {
		if msg, ok := wrongKey[in.stream[r.idx].key]; ok && bad[i] == "" {
			bad[i] = msg
		}
	}
	shown := 0
	for i, msg := range bad {
		if shown++; shown <= 20 {
			o.note("FAIL request %d %s: %s", timed[i].idx, in.stream[timed[i].idx].path, msg)
		}
	}
	if len(bad) > 20 {
		o.note("FAIL %d more requests", len(bad)-20)
	}
	return int64(len(bad))
}
