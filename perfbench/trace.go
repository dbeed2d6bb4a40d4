package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Start and End are offsets
// from the tracer's origin. Spans of one serve-mix request share ReqID;
// Parent indexes the causing span, or is -1 for a root.
type span struct {
	Name   string        `json:"name"`
	Kind   string        `json:"kind,omitempty"`
	ReqID  string        `json:"req_id,omitempty"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// dur is the span's length.
func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths call it unconditionally.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// now is the current offset from the origin.
func (t *tracer) now() time.Duration { return time.Since(t.origin) }

// begin opens a span and returns its index.
func (t *tracer) begin(name, kind, reqID string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Kind: kind, ReqID: reqID, Parent: parent, Start: now, End: -1})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// add records an already-closed span (the engine span, which the benchmark
// reconstructs from Record.HostElapsed) and returns its index.
func (t *tracer) add(s span) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// snapshot copies the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write dumps the spans as JSON.
func (t *tracer) write(path string) error {
	buf, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Overlapping children count once,
// and child time outside the parent's interval is not subtracted.
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		var iv [][2]time.Duration
		for _, c := range children[i] {
			lo, hi := spans[c].Start, spans[c].End
			if lo < s.Start {
				lo = s.Start
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				iv = append(iv, [2]time.Duration{lo, hi})
			}
		}
		self[i] = s.dur() - covered(iv)
	}
	return self
}

// covered is the total length of the union of the intervals.
func covered(iv [][2]time.Duration) time.Duration {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total time.Duration
	var curLo, curHi time.Duration
	open := false
	for _, v := range iv {
		if !open || v[0] > curHi {
			if open {
				total += curHi - curLo
			}
			curLo, curHi, open = v[0], v[1], true
			continue
		}
		if v[1] > curHi {
			curHi = v[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// linkByRequest sets the Parent of every span that has none from the
// request-ID chain: a span named by a key of parentOf hangs under the span
// of the same request named by its value.
func linkByRequest(spans []span, parentOf map[string]string) {
	byReq := map[string]map[string]int{}
	for i, s := range spans {
		if s.ReqID == "" {
			continue
		}
		if byReq[s.ReqID] == nil {
			byReq[s.ReqID] = map[string]int{}
		}
		byReq[s.ReqID][s.Name] = i
	}
	for i := range spans {
		s := &spans[i]
		if s.Parent >= 0 || s.ReqID == "" {
			continue
		}
		if p, ok := byReq[s.ReqID][parentOf[s.Name]]; ok {
			s.Parent = p
		}
	}
}
