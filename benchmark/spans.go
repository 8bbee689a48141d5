package main

// Span recording for the traced replay. The replay runs on one goroutine,
// so spans nest as a stack: a span's parent is whatever span was open
// when it began. Spans are kept in memory and written out once, when the
// replay ends. A disabled recorder does no timing at all, which is how
// the replay measures its own overhead.

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder's origin
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index into the span list, -1 for a root
	Op     int    `json:"op"`     // replay op the span belongs to
}

// recorder collects spans, and counts calls per layer even when spans
// are off, so two replays can be compared call for call.
type recorder struct {
	on     bool
	origin time.Time
	spans  []span
	stack  []int
	op     int
	calls  map[string]int
}

func newRecorder(on bool) *recorder {
	return &recorder{on: on, origin: time.Now(), calls: map[string]int{}}
}

// setOp tags the spans begun from now on with a replay op id.
func (r *recorder) setOp(op int) { r.op = op }

// begin opens a span and returns the function that closes it.
func (r *recorder) begin(name string) func() {
	r.calls[name]++
	if !r.on {
		return func() {}
	}
	parent := -1
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	idx := len(r.spans)
	r.spans = append(r.spans, span{Name: name, Start: int64(time.Since(r.origin)), Parent: parent, Op: r.op})
	r.stack = append(r.stack, idx)
	return func() {
		r.spans[idx].End = int64(time.Since(r.origin))
		r.stack = r.stack[:len(r.stack)-1]
	}
}

// add records a span timed elsewhere (on another goroutine) as a child of
// the open span.
func (r *recorder) add(name string, start, end time.Time) {
	r.calls[name]++
	if !r.on {
		return
	}
	parent := -1
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	r.spans = append(r.spans, span{Name: name, Start: int64(start.Sub(r.origin)), End: int64(end.Sub(r.origin)), Parent: parent, Op: r.op})
}

// layerTotals is one layer's share of a replay.
type layerTotals struct {
	calls  int
	selfNS int64
}

// totals returns per-layer self time (a span's duration minus the part
// its children cover) and call counts, plus the time covered by root
// spans.
func (r *recorder) totals() (map[string]*layerTotals, int64) {
	child := make([]int64, len(r.spans))
	var covered int64
	for _, s := range r.spans {
		d := s.End - s.Start
		if s.Parent >= 0 {
			child[s.Parent] += d
		} else {
			covered += d
		}
	}
	out := map[string]*layerTotals{}
	for i, s := range r.spans {
		t := out[s.Name]
		if t == nil {
			t = &layerTotals{}
			out[s.Name] = t
		}
		t.calls++
		t.selfNS += s.End - s.Start - child[i]
	}
	return out, covered
}

// write stores the spans as JSON lines in the order they began, which is
// the order Parent indexes refer to.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
