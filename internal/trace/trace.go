// Package trace records simulated-thread timelines from machine runs and
// renders them as ASCII Gantt charts — the fastest way to see *why* the
// same program behaves differently across machines: on the Tera MTA model,
// hundreds of short overlapping stream bars; on a conventional SMP, a few
// long bars with serialized spawn stair-steps.
//
// The package is standalone: machines call (*Log).Record, and anything that
// has events can render them.
package trace

import (
	"fmt"
	"sort"
	"strings"
)

// Kind classifies a timeline event.
type Kind int

const (
	// ThreadStart marks a thread beginning execution (after admission).
	ThreadStart Kind = iota
	// ThreadEnd marks a thread's body returning.
	ThreadEnd
	// Mark is a user-placed phase annotation.
	Mark
	// SyncAlloc records a named synchronization primitive being created
	// (counter, barrier). Gantt rendering and span pairing ignore it; it is
	// in the log so post-processors can attribute sync traffic by name.
	SyncAlloc
)

// Event is one timeline record.
type Event struct {
	T      float64 // cycles
	Thread string
	Proc   int
	Kind   Kind
	Label  string
}

// Log accumulates events from one run.
type Log struct {
	ClockHz float64
	Events  []Event
}

// New returns an empty log for a machine with the given clock.
func New(clockHz float64) *Log { return &Log{ClockHz: clockHz} }

// Record appends e to the log. Recording on a nil log is a no-op, so
// machines can record unconditionally whether or not tracing is on.
func (l *Log) Record(e Event) {
	if l == nil {
		return
	}
	l.Events = append(l.Events, e)
}

// span is one thread's reconstructed lifetime.
type span struct {
	name       string
	proc       int
	start, end float64
	marks      []Event
}

// spans pairs start/end events per thread, in start order. Thread names may
// repeat (e.g. many workers named "w"); ends and marks attach to the oldest
// still-open span with that name (FIFO), matching sequential reuse.
func (l *Log) spans() []span {
	open := map[string][]*span{}
	var order []*span
	endT := 0.0
	for _, e := range l.Events {
		if e.T > endT {
			endT = e.T
		}
		switch e.Kind {
		case ThreadStart:
			s := &span{name: e.Thread, proc: e.Proc, start: e.T, end: -1}
			open[e.Thread] = append(open[e.Thread], s)
			order = append(order, s)
		case ThreadEnd:
			if q := open[e.Thread]; len(q) > 0 {
				q[0].end = e.T
				open[e.Thread] = q[1:]
			}
		case Mark:
			if q := open[e.Thread]; len(q) > 0 {
				q[0].marks = append(q[0].marks, e)
			}
		}
	}
	out := make([]span, 0, len(order))
	for _, s := range order {
		if s.end < 0 {
			s.end = endT // never finished (killed / still running at end)
		}
		out = append(out, *s)
	}
	return out
}

// End returns the time of the last event.
func (l *Log) End() float64 {
	end := 0.0
	for _, e := range l.Events {
		if e.T > end {
			end = e.T
		}
	}
	return end
}

// Gantt renders up to maxRows thread timelines as a width-column chart.
// Threads beyond maxRows are summarized in a footer. Each row shows the
// thread's active span as '█' with '▸' phase marks.
func (l *Log) Gantt(width, maxRows int) string {
	if width < 20 {
		width = 20
	}
	spans := l.spans()
	end := l.End()
	if end == 0 || len(spans) == 0 {
		return "(no events)\n"
	}
	col := func(t float64) int {
		c := int(t / end * float64(width-1))
		if c >= width {
			c = width - 1
		}
		return c
	}
	nameW := 0
	show := spans
	if len(show) > maxRows {
		show = show[:maxRows]
	}
	for _, s := range show {
		if len(s.name) > nameW {
			nameW = len(s.name)
		}
	}
	if nameW > 28 {
		nameW = 28
	}
	var sb strings.Builder
	for _, s := range show {
		row := []rune(strings.Repeat("·", width))
		for c := col(s.start); c <= col(s.end); c++ {
			row[c] = '█'
		}
		for _, m := range s.marks {
			row[col(m.T)] = '▸'
		}
		name := s.name
		if len(name) > nameW {
			name = name[:nameW-1] + "…"
		}
		fmt.Fprintf(&sb, "%-*s p%d │%s│\n", nameW, name, s.proc, string(row))
	}
	if hidden := len(spans) - len(show); hidden > 0 {
		fmt.Fprintf(&sb, "%-*s    │ … %d more threads …\n", nameW, "", hidden)
	}
	fmt.Fprintf(&sb, "%-*s    0%scycles%s%.3g\n", nameW, "",
		strings.Repeat(" ", (width-10)/2), strings.Repeat(" ", width-10-(width-10)/2), end)
	return sb.String()
}

// Stats summarizes the log: thread count, makespan, mean thread lifetime and
// peak concurrency.
type Stats struct {
	Threads     int
	Makespan    float64 // cycles
	MeanLife    float64 // cycles
	PeakLive    int
	PerProcPeak map[int]int
}

// Summarize computes Stats from the log.
func (l *Log) Summarize() Stats {
	spans := l.spans()
	st := Stats{Threads: len(spans), Makespan: l.End(), PerProcPeak: map[int]int{}}
	if len(spans) == 0 {
		return st
	}
	var total float64
	type edge struct {
		t    float64
		d    int
		proc int
	}
	var edges []edge
	for _, s := range spans {
		total += s.end - s.start
		edges = append(edges, edge{s.start, +1, s.proc}, edge{s.end, -1, s.proc})
	}
	st.MeanLife = total / float64(len(spans))
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].t != edges[j].t {
			return edges[i].t < edges[j].t
		}
		return edges[i].d > edges[j].d // starts before ends at the same instant
	})
	live := 0
	perProc := map[int]int{}
	for _, e := range edges {
		live += e.d
		perProc[e.proc] += e.d
		if live > st.PeakLive {
			st.PeakLive = live
		}
		if perProc[e.proc] > st.PerProcPeak[e.proc] {
			st.PerProcPeak[e.proc] = perProc[e.proc]
		}
	}
	return st
}

// String renders the stats on one line.
func (s Stats) String() string {
	return fmt.Sprintf("threads=%d makespan=%.0f cycles meanLife=%.0f peakLive=%d",
		s.Threads, s.Makespan, s.MeanLife, s.PeakLive)
}
