package pokeholes

// This file implements the serving layer: Engine.Serve exposes a shared
// engine as an HTTP/JSON service — /check, /sweep, /triage, /minimize,
// /campaign, /hunt/status and /stats — with request batching, bounded
// admission control and per-request deadlines. Batching coalesces
// concurrent submissions of the same program fingerprint (and request
// shape) onto one cache-backed computation via the same coalescing LRU
// the engine keys compilations on, so a burst of identical requests costs
// one frontend, one compile and one trace. Responses are
// byte-deterministic for a fixed request — two engines given the same
// request produce identical bodies — so the service can be load-balanced
// and replayed; live endpoints (/stats, /hunt/status, /healthz) are the
// deliberate exception.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/corpus"
	"repro/internal/minic"
)

// Serving defaults, overridable per field in ServeSpec.
const (
	// DefaultMaxQueueFactor sizes the admission queue at this multiple of
	// MaxInflight when ServeSpec.MaxQueue is zero.
	DefaultMaxQueueFactor = 4
	// DefaultRequestTimeout is the per-request deadline unless
	// ServeSpec.RequestTimeout overrides it.
	DefaultRequestTimeout = 30 * time.Second
	// DefaultResponseCache is the response-body cache capacity (entries)
	// unless ServeSpec.ResponseCache overrides it.
	DefaultResponseCache = 1024
	// DefaultRetryAfter is the Retry-After hint on 429/503 responses.
	DefaultRetryAfter = time.Second
	// DefaultShutdownGrace bounds how long Serve waits for in-flight
	// requests after its context is cancelled.
	DefaultShutdownGrace = 10 * time.Second
)

// Connection deadlines of the HTTP server. The admission gates count
// handlers, so a client that never finishes its request header, or holds
// an idle keep-alive connection open, is bounded here instead.
const (
	readHeaderTimeout = 5 * time.Second
	idleTimeout       = 60 * time.Second
)

// ServeSpec configures one serving session over an engine.
type ServeSpec struct {
	// Addr is the TCP listen address (e.g. ":8080"). Ignored when
	// Listener is set.
	Addr string
	// Listener, when non-nil, is served directly — tests and callers that
	// need to know the bound port pass a prepared loopback listener.
	Listener net.Listener
	// MaxInflight bounds concurrently processed requests (default: the
	// engine's worker count).
	MaxInflight int
	// MaxQueue bounds admitted-but-waiting requests beyond MaxInflight
	// (default: DefaultMaxQueueFactor × MaxInflight; negative: no queue).
	// A request arriving past MaxInflight+MaxQueue is rejected with 429
	// and a Retry-After hint.
	MaxQueue int
	// RequestTimeout is the per-request deadline, queue wait included
	// (default DefaultRequestTimeout; negative: no deadline). A request
	// that exceeds it fails with 503 and a Retry-After hint.
	RequestTimeout time.Duration
	// ResponseCache is the response-body cache capacity in entries
	// (default DefaultResponseCache; negative disables caching AND
	// response-level batching — engine-level caches still coalesce).
	ResponseCache int
	// RetryAfter is the Retry-After hint on 429/503 responses (default
	// DefaultRetryAfter).
	RetryAfter time.Duration
	// ShutdownGrace bounds the graceful drain after the serve context is
	// cancelled (default DefaultShutdownGrace).
	ShutdownGrace time.Duration
	// Hunt, when non-nil, runs a background Engine.Hunt for the lifetime
	// of the serve context; /hunt/status reports its live progress.
	Hunt *HuntSpec
}

// withDefaults resolves the spec's zero values against an engine.
func (sp ServeSpec) withDefaults(e *Engine) ServeSpec {
	if sp.MaxInflight <= 0 {
		sp.MaxInflight = e.workers
	}
	if sp.MaxQueue == 0 {
		sp.MaxQueue = DefaultMaxQueueFactor * sp.MaxInflight
	}
	if sp.MaxQueue < 0 {
		sp.MaxQueue = 0
	}
	if sp.RequestTimeout == 0 {
		sp.RequestTimeout = DefaultRequestTimeout
	}
	if sp.ResponseCache == 0 {
		sp.ResponseCache = DefaultResponseCache
	}
	if sp.RetryAfter <= 0 {
		sp.RetryAfter = DefaultRetryAfter
	}
	if sp.ShutdownGrace <= 0 {
		sp.ShutdownGrace = DefaultShutdownGrace
	}
	return sp
}

// Wire types. Every response body ends in a single newline; NDJSON bodies
// are a sequence of such lines. Encoding goes through encoding/json whose
// output is deterministic (struct fields in declaration order, map keys
// sorted), which is what makes the determinism guarantee hold.

// CheckRequest is the body of POST /check and POST /triage.
type CheckRequest struct {
	Source  string `json:"source"`
	Family  string `json:"family"`
	Version string `json:"version"`
	Level   string `json:"level"`
	// Schedules, on /triage, additionally delta-debugs every violation's
	// pass schedule to its minimal reproducing subsequence and reports it
	// per culprit (ignored by /check). Off by default: default responses
	// are byte-identical to schedule-less servers.
	Schedules bool `json:"schedules,omitempty"`
}

// SweepRequest is the body of POST /sweep.
type SweepRequest struct {
	Source string `json:"source"`
	Family string `json:"family"`
	// Versions and Levels select the matrix (empty: the family's full
	// version list / all optimizing levels).
	Versions []string `json:"versions,omitempty"`
	Levels   []string `json:"levels,omitempty"`
	// Measure adds the §2 metrics of every cell to its report line.
	Measure bool `json:"measure,omitempty"`
}

// MinimizeRequest is the body of POST /minimize.
type MinimizeRequest struct {
	Source  string `json:"source"`
	Family  string `json:"family"`
	Version string `json:"version"`
	Level   string `json:"level"`
	// Conjecture and Var identify the violation to preserve; Culprit,
	// when non-empty, must be preserved too (the §4.4 predicate).
	Conjecture int    `json:"conjecture"`
	Var        string `json:"var"`
	Culprit    string `json:"culprit,omitempty"`
}

// CampaignRequest is the body of POST /campaign.
type CampaignRequest struct {
	Family  string   `json:"family"`
	Version string   `json:"version"`
	Levels  []string `json:"levels,omitempty"`
	N       int      `json:"n"`
	Seed0   int64    `json:"seed0"`
	Triage  bool     `json:"triage,omitempty"`
	Measure bool     `json:"measure,omitempty"`
}

// WireViolation is one conjecture violation on the wire.
type WireViolation struct {
	Conjecture int    `json:"conjecture"`
	Line       int    `json:"line"`
	Func       string `json:"func"`
	Var        string `json:"var"`
	State      string `json:"state"`
	Detail     string `json:"detail"`
	Key        string `json:"key"`
}

// WireMetrics are the §2 measures on the wire.
type WireMetrics struct {
	LineCoverage float64 `json:"line_coverage"`
	Availability float64 `json:"availability"`
	Product      float64 `json:"product"`
}

// CheckResponse is the body of POST /check and the per-cell report line
// of the /sweep NDJSON stream.
type CheckResponse struct {
	Fingerprint string          `json:"fingerprint"`
	Family      string          `json:"family"`
	Version     string          `json:"version"`
	Level       string          `json:"level"`
	Config      string          `json:"config"`
	LinesHit    int             `json:"lines_hit"`
	Steppable   int             `json:"steppable"`
	Violations  []WireViolation `json:"violations"`
}

// SweepReportLine is one /sweep NDJSON line of kind "report".
type SweepReportLine struct {
	Kind string `json:"kind"`
	CheckResponse
	Metrics *WireMetrics `json:"metrics,omitempty"`
}

// SweepSummaryLine is one /sweep NDJSON line of kind "summary": one per
// matrix version, after all report lines — the Figures 2/3 level-set
// decomposition and the Table 4 per-conjecture rollup.
type SweepSummaryLine struct {
	Kind               string         `json:"kind"`
	Fingerprint        string         `json:"fingerprint"`
	Version            string         `json:"version"`
	LevelSetCounts     map[string]int `json:"level_set_counts"`
	UniqueByConjecture [3]int         `json:"unique_by_conjecture"`
}

// WireCulprit is one triaged violation of a TriageResponse.
type WireCulprit struct {
	Violation WireViolation `json:"violation"`
	// Culprit is the single optimization pass controlling the violation;
	// empty (Controllable false) when no single knob controls it (§4.3).
	Culprit      string `json:"culprit"`
	Controllable bool   `json:"controllable"`
	// MinimalSchedule is the canonical string of the minimal pass
	// schedule that still reproduces the violation — present only when
	// the request set "schedules" and the reduction succeeded. Two or
	// more comma-separated entries mark a pass-interaction bug
	// (Interaction true); an interaction's constituent passes are beyond
	// what the single Culprit can express.
	MinimalSchedule string `json:"minimal_schedule,omitempty"`
	Interaction     bool   `json:"interaction,omitempty"`
}

// TriageResponse is the body of POST /triage: the configuration's check
// with every violation attributed to a culprit pass.
type TriageResponse struct {
	Fingerprint string        `json:"fingerprint"`
	Config      string        `json:"config"`
	Culprits    []WireCulprit `json:"culprits"`
}

// MinimizeResponse is the body of POST /minimize.
type MinimizeResponse struct {
	Fingerprint string `json:"fingerprint"`
	Config      string `json:"config"`
	Conjecture  int    `json:"conjecture"`
	Var         string `json:"var"`
	Culprit     string `json:"culprit,omitempty"`
	// Source is the minimized program; MinimizedFingerprint its identity.
	Source               string `json:"source"`
	Lines                int    `json:"lines"`
	MinimizedFingerprint string `json:"minimized_fingerprint"`
}

// CampaignResultLine is one /campaign NDJSON line of kind "result" — one
// program's outcome, streamed in seed order as the campaign produces it.
type CampaignResultLine struct {
	Kind       string                     `json:"kind"`
	Index      int                        `json:"index"`
	Seed       int64                      `json:"seed"`
	Violations map[string][]WireViolation `json:"violations"`
	Culprits   map[string]string          `json:"culprits,omitempty"`
	Metrics    map[string]WireMetrics     `json:"metrics,omitempty"`
}

// CampaignEndLine terminates a /campaign NDJSON stream.
type CampaignEndLine struct {
	Kind     string `json:"kind"`
	Programs int    `json:"programs"`
	// Error carries the first per-program failure when the stream ended
	// early (kind "error" instead of "end").
	Error string `json:"error,omitempty"`
}

// HuntStatus is the body of GET /hunt/status.
type HuntStatus struct {
	// Configured reports whether this server runs a background hunt at
	// all; Running and Done track its lifecycle.
	Configured bool   `json:"configured"`
	Running    bool   `json:"running"`
	Done       bool   `json:"done"`
	Error      string `json:"error,omitempty"`
	// Shard is the background hunt's seed-space slice as "index/count"
	// (empty when no hunt is configured). A herd of replicas on disjoint
	// shards reports disjoint values here, which is how the coordinator
	// sanity-checks its fleet.
	Shard string `json:"shard,omitempty"`
	// Progress is the latest per-batch snapshot (absent before the first
	// batch completes).
	Progress *HuntProgress `json:"progress,omitempty"`
}

// MergeResponse is the body of POST /hunt/merge: what the pushed corpus
// contributed to this server's global corpus, and its new size.
type MergeResponse struct {
	NewBuckets    int `json:"new_buckets"`
	MergedBuckets int `json:"merged_buckets"`
	GlobalBuckets int `json:"global_buckets"`
}

// ServerStats are the serving layer's own counters, surfaced next to the
// engine's in GET /stats.
type ServerStats struct {
	// Requests counts admission attempts on the work endpoints; Rejected
	// counts 429s (queue full); Deadline counts RequestTimeout expiries
	// (503) — client disconnects are excluded.
	Requests int64 `json:"requests"`
	Rejected int64 `json:"rejected"`
	Deadline int64 `json:"deadline_failures"`
	// ResponseHits counts requests served (or coalesced) from the
	// response-body cache; a hit means zero new engine work for the
	// request. ResponseEntries is the current resident count.
	ResponseHits    uint64 `json:"response_hits"`
	ResponseMisses  uint64 `json:"response_misses"`
	ResponseEntries int    `json:"response_entries"`
	// Merges counts corpora unioned into the global corpus — the local
	// hunt's snapshots and /hunt/merge pushes alike; GlobalBuckets is
	// the global corpus's current unique-bug count.
	Merges        int64 `json:"merges"`
	GlobalBuckets int   `json:"global_buckets"`
}

// StatsResponse is the body of GET /stats.
type StatsResponse struct {
	Engine EngineStats `json:"engine"`
	Server ServerStats `json:"server"`
}

// errorBody is the JSON body of every non-2xx response.
type errorBody struct {
	Error string `json:"error"`
}

// requestError marks a client-side (400) failure.
type requestError struct{ msg string }

func (e *requestError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &requestError{fmt.Sprintf(format, args...)}
}

// Server is the HTTP serving layer over one engine. Construct with
// Engine.NewServer; Handler returns the routed http.Handler (embed it, or
// let Engine.Serve listen and drain for you).
type Server struct {
	eng  *Engine
	spec ServeSpec
	mux  *http.ServeMux

	// resp is the response-body cache: coalescing gives request batching
	// (identical concurrent requests compute once), storage gives replay
	// (identical later requests cost zero engine work). Nil when disabled.
	resp *cache.Cache[string, []byte]

	// Admission state: pending counts admitted requests (running +
	// queued); sem bounds the running ones.
	pending atomic.Int64
	sem     chan struct{}

	requests  atomic.Int64
	rejected  atomic.Int64
	deadlines atomic.Int64

	huntMu sync.Mutex
	hunt   HuntStatus

	// global is the server's merged bug set: the local background hunt's
	// batch-boundary snapshots and every corpus POSTed to /hunt/merge,
	// unioned via corpus.Merge. globalMu serializes merges against
	// /hunt/export encodes, so an export is always a consistent
	// (never torn) snapshot. merges counts unions performed.
	globalMu sync.Mutex
	global   *corpus.Corpus
	merges   atomic.Int64
}

// NewServer returns the serving layer over the engine. The returned
// server is ready to use via Handler; Engine.Serve adds listening,
// graceful shutdown and the optional background hunt.
func (e *Engine) NewServer(spec ServeSpec) *Server {
	spec = spec.withDefaults(e)
	s := &Server{
		eng:    e,
		spec:   spec,
		sem:    make(chan struct{}, spec.MaxInflight),
		global: corpus.New(),
	}
	if spec.ResponseCache > 0 {
		s.resp = cache.New[string, []byte](spec.ResponseCache)
	}
	s.hunt.Configured = spec.Hunt != nil
	if spec.Hunt != nil {
		cnt := spec.Hunt.ShardCount
		if cnt == 0 {
			cnt = 1
		}
		s.hunt.Shard = fmt.Sprintf("%d/%d", spec.Hunt.ShardIndex, cnt)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /check", s.handleCheck)
	mux.HandleFunc("POST /sweep", s.handleSweep)
	mux.HandleFunc("POST /triage", s.handleTriage)
	mux.HandleFunc("POST /minimize", s.handleMinimize)
	mux.HandleFunc("POST /campaign", s.handleCampaign)
	// The hunt/merge plane sits outside the admission gate, like
	// /hunt/status: the coordinator's pulls and pushes are cheap,
	// engine-free, and must not be starved behind queued work requests.
	mux.HandleFunc("GET /hunt/status", s.handleHuntStatus)
	mux.HandleFunc("GET /hunt/export", s.handleHuntExport)
	mux.HandleFunc("POST /hunt/merge", s.handleHuntMerge)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux = mux
	return s
}

// Handler returns the server's routed handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Stats returns the serving layer's own counters.
func (s *Server) Stats() ServerStats {
	st := ServerStats{
		Requests: s.requests.Load(),
		Rejected: s.rejected.Load(),
		Deadline: s.deadlines.Load(),
		Merges:   s.merges.Load(),
	}
	if s.resp != nil {
		st.ResponseHits, st.ResponseMisses = s.resp.Stats()
		st.ResponseEntries = s.resp.Len()
	}
	s.globalMu.Lock()
	st.GlobalBuckets = s.global.Len()
	s.globalMu.Unlock()
	return st
}

// mergeGlobal unions a corpus into the server's global bug set.
func (s *Server) mergeGlobal(c *corpus.Corpus) (MergeStats, error) {
	s.globalMu.Lock()
	defer s.globalMu.Unlock()
	st, err := s.global.Merge(c)
	if err == nil {
		s.merges.Add(1)
	}
	return st, err
}

// retryAfterSeconds renders the Retry-After hint (at least 1 second).
func (s *Server) retryAfterSeconds() string {
	secs := int((s.spec.RetryAfter + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// writeJSON writes one JSON body line with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil { // wire types always marshal; defensive only
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(body, '\n'))
}

// writeError maps an error to its status code and deterministic JSON body.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	var reqErr *requestError
	switch {
	case errors.As(err, &reqErr):
		writeJSON(w, http.StatusBadRequest, errorBody{Error: reqErr.msg})
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		// Only genuine RequestTimeout expiries count toward the deadline
		// stat: a Canceled here means the client disconnected (or the
		// server is closing), which is not deadline pressure.
		if errors.Is(err, context.DeadlineExceeded) {
			s.deadlines.Add(1)
		}
		w.Header().Set("Retry-After", s.retryAfterSeconds())
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "deadline exceeded"})
	default:
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
	}
}

// admitted wraps a work handler with the admission gate and the
// per-request deadline: past MaxInflight+MaxQueue it rejects with 429
// immediately; a request whose deadline fires while queued fails with
// 503. The context handed to the handler carries the request deadline.
func (s *Server) admitted(h func(ctx context.Context, w http.ResponseWriter, r *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.requests.Add(1)
		limit := int64(s.spec.MaxInflight + s.spec.MaxQueue)
		if s.pending.Add(1) > limit {
			s.pending.Add(-1)
			s.rejected.Add(1)
			w.Header().Set("Retry-After", s.retryAfterSeconds())
			writeJSON(w, http.StatusTooManyRequests, errorBody{Error: "admission queue full"})
			return
		}
		defer s.pending.Add(-1)

		ctx := r.Context()
		if s.spec.RequestTimeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.spec.RequestTimeout)
			defer cancel()
		}
		select {
		case s.sem <- struct{}{}:
			defer func() { <-s.sem }()
		case <-ctx.Done():
			if errors.Is(ctx.Err(), context.DeadlineExceeded) {
				s.deadlines.Add(1) // a client disconnect is not deadline pressure
			}
			w.Header().Set("Retry-After", s.retryAfterSeconds())
			writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "deadline exceeded while queued"})
			return
		}
		h(ctx, w, r)
	}
}

// decodeBody strictly decodes a JSON request body into v.
func decodeBody(r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 8<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return badRequest("bad request body: %v", err)
	}
	return nil
}

// parseConfig validates and builds a configuration from wire fields.
func parseConfig(family, version, level string) (Config, error) {
	cfg := Config{Family: Family(family), Version: version, Level: level}
	if cfg.Family != GC && cfg.Family != CL {
		return cfg, badRequest("unknown family %q", family)
	}
	if cfg.VersionIndex() < 0 {
		return cfg, badRequest("unknown version %q for family %s", version, family)
	}
	for _, l := range Levels(cfg.Family) {
		if l == level {
			return cfg, nil
		}
	}
	return cfg, badRequest("unknown level %q for family %s", level, family)
}

// parseSource parses MiniC source from a request.
func parseSource(src string) (*minic.Program, error) {
	if src == "" {
		return nil, badRequest("empty source")
	}
	prog, err := ParseProgram(src)
	if err != nil {
		return nil, badRequest("parse: %v", err)
	}
	return prog, nil
}

// serveBody runs compute through the response cache — coalescing
// concurrent identical requests onto one computation and replaying
// repeats for free — and writes the body. The coalescing inherits the
// cache's per-request deadline semantics: a waiter's deadline unblocks
// only that waiter, and a leader abandoned by its own deadline hands the
// computation to a live waiter instead of failing it.
func (s *Server) serveBody(ctx context.Context, w http.ResponseWriter, key, contentType string, compute func(ctx context.Context) ([]byte, error)) {
	var body []byte
	var err error
	if s.resp != nil {
		body, err = s.resp.GetOrComputeCtx(ctx, key, func() ([]byte, error) { return compute(ctx) })
	} else {
		body, err = compute(ctx)
	}
	if err != nil {
		s.writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", contentType)
	w.Write(body)
}

// wireViolations converts violations for the wire (never nil: an empty
// list serializes as [], keeping bodies deterministic).
func wireViolations(vs []Violation) []WireViolation {
	out := make([]WireViolation, 0, len(vs))
	for _, v := range vs {
		out = append(out, WireViolation{Conjecture: v.Conjecture, Line: v.Line,
			Func: v.Func, Var: v.Var, State: v.State.String(), Detail: v.Detail,
			Key: v.Key()})
	}
	return out
}

// wireCheck builds the wire report of one configuration's check.
func wireCheck(fp string, rep *Report) CheckResponse {
	return CheckResponse{
		Fingerprint: fp,
		Family:      string(rep.Config.Family),
		Version:     rep.Config.Version,
		Level:       rep.Config.Level,
		Config:      rep.Config.String(),
		LinesHit:    len(rep.Trace.Stops),
		Steppable:   len(rep.Trace.Steppable),
		Violations:  wireViolations(rep.Violations),
	}
}

// wireMetrics converts the §2 measures for the wire.
func wireMetrics(m Metrics) WireMetrics {
	return WireMetrics{LineCoverage: m.LineCoverage, Availability: m.Availability,
		Product: m.Product}
}

// marshalLine renders one NDJSON line (newline included).
func marshalLine(v any) ([]byte, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(body, '\n'), nil
}

func (s *Server) handleCheck(w http.ResponseWriter, r *http.Request) {
	s.admitted(func(ctx context.Context, w http.ResponseWriter, r *http.Request) {
		var req CheckRequest
		if err := decodeBody(r, &req); err != nil {
			s.writeError(w, err)
			return
		}
		cfg, err := parseConfig(req.Family, req.Version, req.Level)
		if err != nil {
			s.writeError(w, err)
			return
		}
		prog, err := parseSource(req.Source)
		if err != nil {
			s.writeError(w, err)
			return
		}
		// The batching key is the canonical source (fingerprint-prefixed),
		// not the raw request bytes: requests differing only in formatting
		// or field order coalesce too.
		srcKey := sourceKey(prog)
		fp := srcKey[:16] // the sourceKey's fingerprint prefix; avoids a second render
		key := "check|" + cfg.String() + "|" + srcKey
		s.serveBody(ctx, w, key, "application/json", func(ctx context.Context) ([]byte, error) {
			rep, err := s.eng.Check(ctx, prog, cfg)
			if err != nil {
				return nil, err
			}
			return marshalLine(wireCheck(fp, rep))
		})
	})(w, r)
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	s.admitted(func(ctx context.Context, w http.ResponseWriter, r *http.Request) {
		var req SweepRequest
		if err := decodeBody(r, &req); err != nil {
			s.writeError(w, err)
			return
		}
		fam := Family(req.Family)
		if fam != GC && fam != CL {
			s.writeError(w, badRequest("unknown family %q", req.Family))
			return
		}
		mx := Matrix{Family: fam, Versions: req.Versions, Levels: req.Levels,
			Measure: req.Measure}
		// Validate the matrix up front so malformed requests 400 here and
		// every later failure is a genuine server-side (5xx) one.
		if err := mx.withDefaults().validate(); err != nil {
			s.writeError(w, badRequest("%v", err))
			return
		}
		prog, err := parseSource(req.Source)
		if err != nil {
			s.writeError(w, err)
			return
		}
		srcKey := sourceKey(prog)
		fp := srcKey[:16] // the sourceKey's fingerprint prefix; avoids a second render
		// The matrix dimensions are JSON-encoded into the key: a plain
		// join would let distinct requests collide (["v8","trunk"] vs
		// ["v8 trunk"]) and serve each other's cached bodies.
		dims, err := json.Marshal(struct {
			V []string `json:"v"`
			L []string `json:"l"`
			M bool     `json:"m"`
		}{req.Versions, req.Levels, req.Measure})
		if err != nil {
			s.writeError(w, err)
			return
		}
		key := fmt.Sprintf("sweep|%s|%s|%s", fam, dims, srcKey)
		s.serveBody(ctx, w, key, "application/x-ndjson", func(ctx context.Context) ([]byte, error) {
			sr, err := s.eng.Sweep(ctx, prog, mx)
			if err != nil {
				return nil, err
			}
			var buf bytes.Buffer
			for i, rep := range sr.Reports {
				line := SweepReportLine{Kind: "report", CheckResponse: wireCheck(fp, rep)}
				if sr.Matrix.Measure {
					m := wireMetrics(sr.Metrics[i])
					line.Metrics = &m
				}
				b, err := marshalLine(line)
				if err != nil {
					return nil, err
				}
				buf.Write(b)
			}
			for _, ver := range sr.Matrix.Versions {
				b, err := marshalLine(SweepSummaryLine{Kind: "summary", Fingerprint: fp,
					Version: ver, LevelSetCounts: sr.LevelSetCounts(ver),
					UniqueByConjecture: sr.UniqueByConjecture(ver)})
				if err != nil {
					return nil, err
				}
				buf.Write(b)
			}
			return buf.Bytes(), nil
		})
	})(w, r)
}

func (s *Server) handleTriage(w http.ResponseWriter, r *http.Request) {
	s.admitted(func(ctx context.Context, w http.ResponseWriter, r *http.Request) {
		var req CheckRequest
		if err := decodeBody(r, &req); err != nil {
			s.writeError(w, err)
			return
		}
		cfg, err := parseConfig(req.Family, req.Version, req.Level)
		if err != nil {
			s.writeError(w, err)
			return
		}
		prog, err := parseSource(req.Source)
		if err != nil {
			s.writeError(w, err)
			return
		}
		srcKey := sourceKey(prog)
		fp := srcKey[:16] // the sourceKey's fingerprint prefix; avoids a second render
		// Schedule-enriched responses cache under their own key: the same
		// source must keep serving the byte-identical default body.
		key := "triage|" + cfg.String() + "|" + srcKey
		if req.Schedules {
			key = "triage-sched|" + cfg.String() + "|" + srcKey
		}
		s.serveBody(ctx, w, key, "application/json", func(ctx context.Context) ([]byte, error) {
			rep, err := s.eng.Check(ctx, prog, cfg)
			if err != nil {
				return nil, err
			}
			resp := TriageResponse{Fingerprint: fp, Config: cfg.String(),
				Culprits: make([]WireCulprit, 0, len(rep.Violations))}
			for _, v := range rep.Violations {
				culprit, err := s.eng.Triage(ctx, prog, cfg, v)
				if cerr := ctx.Err(); cerr != nil {
					// Distinguish "not single-knob controllable" from "the
					// request died": only the former is a result.
					return nil, cerr
				}
				if err != nil {
					culprit = ""
				}
				wc := WireCulprit{
					Violation: wireViolations([]Violation{v})[0],
					Culprit:   culprit, Controllable: culprit != ""}
				if req.Schedules {
					if red, rerr := s.eng.ScheduleReduce(ctx, prog, cfg, v); rerr == nil {
						wc.MinimalSchedule = red.Schedule.String()
						wc.Interaction = red.Interaction()
					}
					if cerr := ctx.Err(); cerr != nil {
						return nil, cerr
					}
				}
				resp.Culprits = append(resp.Culprits, wc)
			}
			return marshalLine(resp)
		})
	})(w, r)
}

func (s *Server) handleMinimize(w http.ResponseWriter, r *http.Request) {
	s.admitted(func(ctx context.Context, w http.ResponseWriter, r *http.Request) {
		var req MinimizeRequest
		if err := decodeBody(r, &req); err != nil {
			s.writeError(w, err)
			return
		}
		cfg, err := parseConfig(req.Family, req.Version, req.Level)
		if err != nil {
			s.writeError(w, err)
			return
		}
		if req.Conjecture < 1 || req.Conjecture > 3 {
			s.writeError(w, badRequest("conjecture must be 1, 2 or 3"))
			return
		}
		if req.Var == "" {
			s.writeError(w, badRequest("empty var"))
			return
		}
		prog, err := parseSource(req.Source)
		if err != nil {
			s.writeError(w, err)
			return
		}
		srcKey := sourceKey(prog)
		fp := srcKey[:16] // the sourceKey's fingerprint prefix; avoids a second render
		// Var and Culprit are client-controlled free-form strings: encode
		// them unambiguously so ("x|", "z") and ("x", "|z") cannot share a
		// cache entry.
		key := fmt.Sprintf("minimize|%s|%d|%q|%q|%s", cfg, req.Conjecture, req.Var,
			req.Culprit, srcKey)
		s.serveBody(ctx, w, key, "application/json", func(ctx context.Context) ([]byte, error) {
			v := Violation{Conjecture: req.Conjecture, Var: req.Var}
			small := s.eng.Minimize(ctx, prog, cfg, v, req.Culprit)
			if err := ctx.Err(); err != nil {
				// A cancelled reduction returns its (nondeterministic)
				// best-so-far; the determinism guarantee forbids serving it.
				return nil, err
			}
			src := Render(small)
			return marshalLine(MinimizeResponse{Fingerprint: fp, Config: cfg.String(),
				Conjecture: req.Conjecture, Var: req.Var, Culprit: req.Culprit,
				Source: src, Lines: sourceLines(src),
				MinimizedFingerprint: Fingerprint(small)})
		})
	})(w, r)
}

// handleCampaign streams one NDJSON line per program as the campaign
// produces them (seed order), terminated by a "end" (or "error") line.
// Unlike the other work endpoints the stream is written live — there is
// no response cache — but the line sequence for a fixed request is still
// deterministic at any worker count.
func (s *Server) handleCampaign(w http.ResponseWriter, r *http.Request) {
	s.admitted(func(ctx context.Context, w http.ResponseWriter, r *http.Request) {
		var req CampaignRequest
		if err := decodeBody(r, &req); err != nil {
			s.writeError(w, err)
			return
		}
		if req.N <= 0 {
			s.writeError(w, badRequest("n must be positive"))
			return
		}
		cctx, cancel := context.WithCancel(ctx)
		defer cancel() // the Campaign cancel contract: never abandon the pool
		results, err := s.eng.Campaign(cctx, CampaignSpec{
			Family: Family(req.Family), Version: req.Version, Levels: req.Levels,
			N: req.N, Seed0: req.Seed0, Triage: req.Triage, Measure: req.Measure})
		if err != nil {
			s.writeError(w, badRequest("%v", err))
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		flusher, _ := w.(http.Flusher)
		enc := json.NewEncoder(w)
		programs := 0
		for res := range results {
			if res.Err != nil {
				enc.Encode(CampaignEndLine{Kind: "error", Programs: programs,
					Error: res.Err.Error()})
				return
			}
			line := CampaignResultLine{Kind: "result", Index: res.Index, Seed: res.Seed,
				Violations: map[string][]WireViolation{}}
			for level, vs := range res.Violations {
				line.Violations[level] = wireViolations(vs)
			}
			if res.Culprits != nil {
				line.Culprits = res.Culprits
			}
			if res.Metrics != nil {
				line.Metrics = map[string]WireMetrics{}
				for level, m := range res.Metrics {
					line.Metrics[level] = wireMetrics(m)
				}
			}
			if err := enc.Encode(line); err != nil {
				return // client gone; the deferred cancel drains the pool
			}
			if flusher != nil {
				flusher.Flush()
			}
			programs++
		}
		if err := ctx.Err(); err != nil {
			enc.Encode(CampaignEndLine{Kind: "error", Programs: programs,
				Error: err.Error()})
			return
		}
		enc.Encode(CampaignEndLine{Kind: "end", Programs: programs})
	})(w, r)
}

func (s *Server) handleHuntStatus(w http.ResponseWriter, r *http.Request) {
	s.huntMu.Lock()
	st := s.hunt
	if st.Progress != nil {
		p := *st.Progress // copy: the background hunt keeps updating it
		st.Progress = &p
	}
	s.huntMu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

// handleHuntExport serves the global corpus as a JSONL snapshot. The
// body is encoded to completion under the merge mutex, so it is always
// a consistent corpus — never torn by a concurrent merge — and, because
// merged corpora serialize in canonical signature order, two replicas
// holding the same merged state export byte-identical bodies.
func (s *Server) handleHuntExport(w http.ResponseWriter, r *http.Request) {
	var buf bytes.Buffer
	s.globalMu.Lock()
	err := s.global.Encode(&buf)
	s.globalMu.Unlock()
	if err != nil {
		s.writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Write(buf.Bytes())
}

// handleHuntMerge accepts a corpus JSONL body and unions it into the
// global corpus. Decoding happens outside the mutex (bodies can be
// large); the union itself is atomic with respect to /hunt/export.
func (s *Server) handleHuntMerge(w http.ResponseWriter, r *http.Request) {
	src, err := corpus.Decode(http.MaxBytesReader(w, r.Body, 64<<20))
	if err != nil {
		s.writeError(w, badRequest("decode corpus: %v", err))
		return
	}
	st, err := s.mergeGlobal(src)
	if err != nil {
		s.writeError(w, badRequest("merge corpus: %v", err))
		return
	}
	s.globalMu.Lock()
	buckets := s.global.Len()
	s.globalMu.Unlock()
	writeJSON(w, http.StatusOK, MergeResponse{NewBuckets: st.NewBuckets,
		MergedBuckets: st.MergedBuckets, GlobalBuckets: buckets})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, StatsResponse{Engine: s.eng.Stats(), Server: s.Stats()})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		OK bool `json:"ok"`
	}{OK: true})
}

// huntStarted/huntProgress/huntFinished feed the /hunt/status snapshot.
func (s *Server) huntStarted() {
	s.huntMu.Lock()
	s.hunt.Running = true
	s.huntMu.Unlock()
}

func (s *Server) huntProgress(p HuntProgress) {
	s.huntMu.Lock()
	s.hunt.Progress = &p
	s.huntMu.Unlock()
}

func (s *Server) huntFinished(err error) {
	s.huntMu.Lock()
	s.hunt.Running = false
	s.hunt.Done = true
	if err != nil {
		s.hunt.Error = err.Error()
	}
	s.huntMu.Unlock()
}

// Serve runs the service until ctx is cancelled: it listens on
// spec.Listener (or spec.Addr), serves the engine's endpoints, runs the
// optional background hunt, and on cancellation drains in-flight requests
// for up to spec.ShutdownGrace before returning. A clean drain returns
// nil; a listener failure returns its error.
func (e *Engine) Serve(ctx context.Context, spec ServeSpec) error {
	s := e.NewServer(spec)
	spec = s.spec // defaults resolved
	ln := spec.Listener
	if ln == nil {
		var err error
		if ln, err = net.Listen("tcp", spec.Addr); err != nil {
			return err
		}
	}

	// The background hunt lives exactly as long as the serve context; its
	// spec's own Progress callback, if any, still runs after the status
	// snapshot updates.
	hctx, hcancel := context.WithCancel(ctx)
	defer hcancel()
	huntDone := make(chan struct{})
	if spec.Hunt != nil {
		hs := *spec.Hunt
		user := hs.Progress
		hs.Progress = func(p HuntProgress) {
			s.huntProgress(p)
			if user != nil {
				user(p)
			}
		}
		// Feed the hunt's batch-boundary snapshots into the global corpus:
		// the callback runs on the hunt goroutine while the corpus is
		// quiescent, and Merge copies what it keeps, so the hunt can
		// mutate its corpus again as soon as the callback returns.
		userSnap := hs.Snapshot
		hs.Snapshot = func(c *Corpus) {
			s.mergeGlobal(c)
			if userSnap != nil {
				userSnap(c)
			}
		}
		s.huntStarted()
		go func() {
			defer close(huntDone)
			_, err := e.Hunt(hctx, hs)
			if errors.Is(err, context.Canceled) {
				err = nil // shutdown, not failure
			}
			s.huntFinished(err)
		}()
	} else {
		close(huntDone)
	}

	srv := &http.Server{Handler: s.Handler(),
		ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()

	var err error
	select {
	case <-ctx.Done():
		sctx, scancel := context.WithTimeout(context.Background(), spec.ShutdownGrace)
		err = srv.Shutdown(sctx)
		scancel()
		if err != nil {
			// Grace expired: force-close lingering connections, which
			// cancels their request contexts and unblocks the handlers.
			srv.Close()
		}
		<-errCh // http.ErrServerClosed
	case err = <-errCh:
		// Listener failure: stop the hunt too.
	}
	hcancel()
	<-huntDone
	return err
}
