package pokeholes_test

// Race/load tests for the serving layer: concurrent mixed traffic under
// the race detector, request batching verified against the engine's work
// counters, admission-control rejections, per-request deadlines, and a
// full Serve lifecycle with the goroutine-leak bracket.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
)

// servePost fires one POST and returns (status, body).
func servePost(t *testing.T, client *http.Client, url, body string) (int, []byte) {
	t.Helper()
	resp, err := client.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("POST %s: read: %v", url, err)
	}
	return resp.StatusCode, out
}

// checkBody renders the /check (and /triage) request for a program.
func checkBody(src string) string {
	return fmt.Sprintf(`{"source":%q,"family":"gc","version":"trunk","level":"O2"}`, src)
}

func sweepBody(src string) string {
	return fmt.Sprintf(`{"source":%q,"family":"gc","versions":["v8","trunk"],"levels":["O1","O2"]}`, src)
}

// TestServeConcurrentMixedDeterministic fires 100 concurrent mixed
// requests (check, sweep and triage over three distinct programs) and
// asserts that every request succeeds, that identical requests produce
// byte-identical bodies, and that the whole burst cost exactly one
// frontend per distinct program — the batching claim, verified through
// EngineStats rather than timing.
func TestServeConcurrentMixedDeterministic(t *testing.T) {
	eng := pokeholes.NewEngine(pokeholes.WithWorkers(8))
	ts := httptest.NewServer(eng.NewServer(pokeholes.ServeSpec{
		MaxInflight: 32, MaxQueue: 128}).Handler())
	defer ts.Close()
	client := ts.Client()
	defer client.CloseIdleConnections()

	seeds := []int64{3, 35, 36}
	type job struct{ path, body string }
	var kinds []job
	for _, seed := range seeds {
		src := pokeholes.Render(pokeholes.GenerateProgram(seed))
		kinds = append(kinds,
			job{"/check", checkBody(src)},
			job{"/sweep", sweepBody(src)},
			job{"/triage", checkBody(src)},
		)
	}

	const total = 100
	bodies := make([][]byte, total)
	statuses := make([]int, total)
	var wg sync.WaitGroup
	for i := 0; i < total; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			k := kinds[i%len(kinds)]
			statuses[i], bodies[i] = servePost(t, client, ts.URL+k.path, k.body)
		}()
	}
	wg.Wait()

	for i := 0; i < total; i++ {
		if statuses[i] != http.StatusOK {
			t.Fatalf("request %d (%s): status %d: %s",
				i, kinds[i%len(kinds)].path, statuses[i], bodies[i])
		}
	}
	// Identical requests → byte-identical bodies.
	for i := len(kinds); i < total; i++ {
		if !bytes.Equal(bodies[i], bodies[i%len(kinds)]) {
			t.Errorf("request %d body differs from its identical twin %d",
				i, i%len(kinds))
		}
	}
	// Three programs crossed the service; ~33 copies of each request
	// coalesced onto one engine computation per distinct program.
	if got := eng.Stats().Frontends; got != int64(len(seeds)) {
		t.Errorf("frontends = %d, want %d (one per distinct program)", got, len(seeds))
	}
}

// TestServeIdenticalRequestsCoalesce pins the batching acceptance
// criterion in its sharpest form: N identical concurrent /check requests
// cost exactly one frontend, one backend compile and one trace, and the
// response cache records exactly one miss.
func TestServeIdenticalRequestsCoalesce(t *testing.T) {
	eng := pokeholes.NewEngine(pokeholes.WithWorkers(8))
	srv := eng.NewServer(pokeholes.ServeSpec{MaxInflight: 32, MaxQueue: 128})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()
	defer client.CloseIdleConnections()

	body := checkBody(pokeholes.Render(pokeholes.GenerateProgram(3)))
	const n = 32
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, out := servePost(t, client, ts.URL+"/check", body)
			if status != http.StatusOK {
				t.Errorf("status %d: %s", status, out)
			}
			bodies[i] = out
		}()
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("identical requests produced different bodies")
		}
	}
	st := eng.Stats()
	if st.Frontends != 1 || st.Compiles != 1 || st.Traces != 1 {
		t.Errorf("engine did repeated work: frontends=%d compiles=%d traces=%d, want 1/1/1",
			st.Frontends, st.Compiles, st.Traces)
	}
	if ss := srv.Stats(); ss.ResponseMisses != 1 {
		t.Errorf("response misses = %d, want 1 (all other requests coalesced or replayed)",
			ss.ResponseMisses)
	}
}

// TestServeAdmissionLimit holds the only processing slot with a streaming
// campaign and asserts the next request is rejected with 429 and a
// Retry-After hint, never queued.
func TestServeAdmissionLimit(t *testing.T) {
	eng := pokeholes.NewEngine(pokeholes.WithWorkers(4))
	ts := httptest.NewServer(eng.NewServer(pokeholes.ServeSpec{
		MaxInflight: 1, MaxQueue: -1, RequestTimeout: time.Minute}).Handler())
	defer ts.Close()
	client := ts.Client()
	defer client.CloseIdleConnections()

	// A long streaming campaign occupies the single slot. Reading the
	// first NDJSON line proves the handler is inside the admission gate.
	campaign := `{"family":"gc","version":"trunk","levels":["O2"],"n":5000,"seed0":1}`
	resp, err := client.Post(ts.URL+"/campaign", "application/json", strings.NewReader(campaign))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("campaign status %d", resp.StatusCode)
	}
	if _, err := bufio.NewReader(resp.Body).ReadString('\n'); err != nil {
		t.Fatalf("campaign first line: %v", err)
	}

	status, out := servePost(t, client, ts.URL+"/check",
		checkBody(pokeholes.Render(pokeholes.GenerateProgram(3))))
	if status != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 (admission queue full): %s", status, out)
	}
	var eb struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(out, &eb); err != nil || eb.Error == "" {
		t.Errorf("429 body not a JSON error: %q", out)
	}

	// The Retry-After hint must be present on the rejection.
	req, _ := http.NewRequest("POST", ts.URL+"/check", strings.NewReader(
		checkBody(pokeholes.Render(pokeholes.GenerateProgram(3)))))
	req.Header.Set("Content-Type", "application/json")
	r2, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r2.Body)
	r2.Body.Close()
	if r2.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second rejection status = %d, want 429", r2.StatusCode)
	}
	if ra := r2.Header.Get("Retry-After"); ra == "" {
		t.Error("429 response missing Retry-After header")
	}
}

// TestServeDeadline503: a request whose per-request deadline has already
// expired when it reaches the queue fails with 503 and Retry-After.
func TestServeDeadline503(t *testing.T) {
	eng := pokeholes.NewEngine(pokeholes.WithWorkers(2))
	ts := httptest.NewServer(eng.NewServer(pokeholes.ServeSpec{
		RequestTimeout: time.Nanosecond}).Handler())
	defer ts.Close()
	client := ts.Client()
	defer client.CloseIdleConnections()

	req, _ := http.NewRequest("POST", ts.URL+"/check", strings.NewReader(
		checkBody(pokeholes.Render(pokeholes.GenerateProgram(3)))))
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("503 response missing Retry-After header")
	}
}

// TestServeBadRequests pins the 400/404/405 edges.
func TestServeBadRequests(t *testing.T) {
	eng := pokeholes.NewEngine(pokeholes.WithWorkers(2))
	ts := httptest.NewServer(eng.NewServer(pokeholes.ServeSpec{}).Handler())
	defer ts.Close()
	client := ts.Client()
	defer client.CloseIdleConnections()

	src := pokeholes.Render(pokeholes.GenerateProgram(3))
	for _, tc := range []struct {
		name, path, body string
		want             int
	}{
		{"bad json", "/check", `{"source":`, http.StatusBadRequest},
		{"unknown family", "/check", fmt.Sprintf(`{"source":%q,"family":"icc","version":"trunk","level":"O2"}`, src), http.StatusBadRequest},
		{"unknown version", "/check", fmt.Sprintf(`{"source":%q,"family":"gc","version":"v99","level":"O2"}`, src), http.StatusBadRequest},
		{"unknown level", "/check", fmt.Sprintf(`{"source":%q,"family":"gc","version":"trunk","level":"O9"}`, src), http.StatusBadRequest},
		{"parse error", "/check", `{"source":"int main(","family":"gc","version":"trunk","level":"O2"}`, http.StatusBadRequest},
		{"empty campaign", "/campaign", `{"family":"gc","version":"trunk","n":0}`, http.StatusBadRequest},
		{"bad minimize conjecture", "/minimize", fmt.Sprintf(`{"source":%q,"family":"gc","version":"trunk","level":"O2","conjecture":7,"var":"x"}`, src), http.StatusBadRequest},
		{"unknown sweep version", "/sweep", fmt.Sprintf(`{"source":%q,"family":"gc","versions":["v99"]}`, src), http.StatusBadRequest},
	} {
		status, out := servePost(t, client, ts.URL+tc.path, tc.body)
		if status != tc.want {
			t.Errorf("%s: status = %d, want %d (%s)", tc.name, status, tc.want, out)
		}
	}
	resp, err := client.Get(ts.URL + "/check") // GET on a POST route
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /check status = %d, want 405", resp.StatusCode)
	}
}

// TestServeCrossInstanceDeterminism is the load-balancing guarantee: two
// independent engines (fresh caches, different worker counts) must
// produce byte-identical bodies for the same request.
func TestServeCrossInstanceDeterminism(t *testing.T) {
	src := pokeholes.Render(pokeholes.GenerateProgram(35))
	requests := []struct{ path, body string }{
		{"/check", checkBody(src)},
		{"/sweep", sweepBody(src)},
		{"/triage", checkBody(src)},
	}
	var first [][]byte
	for run, workers := range []int{1, 8} {
		eng := pokeholes.NewEngine(pokeholes.WithWorkers(workers))
		ts := httptest.NewServer(eng.NewServer(pokeholes.ServeSpec{}).Handler())
		client := ts.Client()
		for i, req := range requests {
			status, out := servePost(t, client, ts.URL+req.path, req.body)
			if status != http.StatusOK {
				t.Fatalf("run %d %s: status %d: %s", run, req.path, status, out)
			}
			if run == 0 {
				first = append(first, out)
			} else if !bytes.Equal(out, first[i]) {
				t.Errorf("%s body differs between independent instances", req.path)
			}
		}
		client.CloseIdleConnections()
		ts.Close()
	}
}

// TestServeShutdownNoGoroutineLeak runs the full Serve lifecycle — real
// listener, live traffic, a background hunt — cancels the serve context,
// and asserts the graceful drain leaves no goroutine behind (the same
// bracket the campaign/sweep/hunt cancel tests use).
func TestServeShutdownNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	corpus := t.TempDir() + "/corpus.jsonl"
	ctx, cancel := context.WithCancel(context.Background())
	eng := pokeholes.NewEngine(pokeholes.WithWorkers(4))
	serveErr := make(chan error, 1)
	go func() {
		serveErr <- eng.Serve(ctx, pokeholes.ServeSpec{
			Listener: ln,
			// Seeds 1-2 carry a single cheap violation between them, so the
			// first two-program batch (and its checkpoint) lands within
			// seconds even under the race detector; the 4096 budget keeps
			// the hunt mid-flight until shutdown interrupts it.
			Hunt: &pokeholes.HuntSpec{Family: pokeholes.GC, Version: "trunk",
				Levels: []string{"O2"}, Budget: 4096, Seed0: 1, BatchSize: 2,
				NoMinimize: true, CorpusPath: corpus},
		})
	}()

	base := "http://" + ln.Addr().String()
	client := &http.Client{}
	status, out := servePost(t, client, base+"/check",
		checkBody(pokeholes.Render(pokeholes.GenerateProgram(3))))
	if status != http.StatusOK {
		t.Fatalf("check status %d: %s", status, out)
	}
	// Wait for the hunt's first batch so shutdown interrupts a hunt that
	// has already checkpointed once (and so /hunt/status carries a
	// progress snapshot).
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := client.Get(base + "/hunt/status")
		if err != nil {
			t.Fatal(err)
		}
		var hs pokeholes.HuntStatus
		if err := json.NewDecoder(resp.Body).Decode(&hs); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if !hs.Configured {
			t.Fatalf("hunt status = %+v, want configured", hs)
		}
		if hs.Progress != nil && hs.Progress.Batch >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("hunt never completed its first batch")
		}
		time.Sleep(10 * time.Millisecond)
	}

	cancel()
	select {
	case err := <-serveErr:
		if err != nil {
			t.Fatalf("Serve returned %v, want nil after a clean drain", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("Serve did not return after cancellation")
	}
	// The interrupted hunt checkpointed its corpus on the way out.
	if _, err := os.Stat(corpus); err != nil {
		t.Errorf("hunt corpus not checkpointed on shutdown: %v", err)
	}
	client.CloseIdleConnections()
	waitGoroutinesDrained(t, before)
}

// TestServeStalledHeaderDisconnected opens a raw connection to a running
// Serve, sends half a request header and stalls: the server must drop the
// connection on its header deadline instead of holding it forever.
func TestServeStalledHeaderDisconnected(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	eng := pokeholes.NewEngine(pokeholes.WithWorkers(1))
	serveErr := make(chan error, 1)
	go func() { serveErr <- eng.Serve(ctx, pokeholes.ServeSpec{Listener: ln}) }()
	defer func() {
		cancel()
		if err := <-serveErr; err != nil {
			t.Errorf("Serve returned %v, want nil", err)
		}
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "POST /check HTTP/1.1\r\nHost: localhost\r\n"); err != nil {
		t.Fatal(err)
	}
	// Far beyond the server's header deadline: timing out here means the
	// server never closed the connection.
	conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	n, err := io.Copy(io.Discard, conn)
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("stalled connection still open after 30s")
	}
	if n != 0 {
		t.Errorf("server answered a request whose header never completed (%d bytes)", n)
	}
}

// TestServeStackOverflowAnswers checks a program that recurses without
// bound: /check must answer with an error naming the overflow, and the
// server must keep serving afterwards.
func TestServeStackOverflowAnswers(t *testing.T) {
	eng := pokeholes.NewEngine(pokeholes.WithWorkers(2))
	ts := httptest.NewServer(eng.NewServer(pokeholes.ServeSpec{}).Handler())
	defer ts.Close()
	client := ts.Client()
	defer client.CloseIdleConnections()

	src := "int f(int n) { return f(n + 1); }\nint main(void) { return f(0); }\n"
	status, out := servePost(t, client, ts.URL+"/check", checkBody(src))
	if status == http.StatusOK || !strings.Contains(string(out), "stack overflow") {
		t.Errorf("recursive /check = %d %s, want an error naming the stack overflow", status, out)
	}
	status, out = servePost(t, client, ts.URL+"/check",
		checkBody(pokeholes.Render(pokeholes.GenerateProgram(3))))
	if status != http.StatusOK {
		t.Errorf("follow-up /check status %d: %s", status, out)
	}
}
