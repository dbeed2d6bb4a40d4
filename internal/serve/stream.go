package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"repro/internal/run"
)

// StreamEvent is one Spec's result in both serving tiers, and one line of a
// /v1/run/stream response: NDJSON, one JSON object per line, emitted as each
// Spec's Record completes rather than at batch end. Index addresses the
// submitted batch positionally, and exactly one of Record and Error is set —
// the same per-spec contract as BatchResponse, which is the collected form
// of the stream. Every submitted Spec produces exactly one event; arrival
// order is completion order, not batch order.
type StreamEvent struct {
	Index  int         `json:"index"`
	Record *run.Record `json:"record,omitempty"`
	Error  string      `json:"error,omitempty"`
}

// StartStream commits a 200 NDJSON response and returns the function that
// writes one event line and flushes it, so the caller sees each Record the
// moment it completes. It reports false once the client is gone. Shared by
// the serving tier and the router, so both stream the same dialect.
func StartStream(w http.ResponseWriter) func(StreamEvent) bool {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w) // no indent: one event per line
	rc := http.NewResponseController(w)
	return func(ev StreamEvent) bool {
		if enc.Encode(ev) != nil {
			return false
		}
		// A writer that cannot flush still delivers every line, only later;
		// a client gone mid-flush fails the next Encode.
		_ = rc.Flush()
		return true
	}
}

// handleStream answers POST /v1/run/stream: the same admitted batch as
// /v1/run, but each event is written (and flushed) as it completes. Once the
// first byte is out the response is committed, so per-spec problems travel
// as error events.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	events, n, ok := s.admit(w, r)
	if !ok {
		return
	}
	write := StartStream(w)
	for range n {
		select {
		case ev := <-events:
			if !write(ev) {
				return // client gone; the rest drain into the buffer
			}
		case <-r.Context().Done():
			return
		}
	}
}

// readStream reads the NDJSON answer to an n-Spec batch from r, handing each
// event to fn as its line arrives, and holds the stream to its contract:
// every line is one JSON event, every index addresses the batch, none
// arrives twice, and the stream does not end before all n have arrived.
func readStream(r io.Reader, n int, fn func(StreamEvent)) error {
	seen := make([]bool, n)
	events := 0
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var ev StreamEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			return fmt.Errorf("serve: decoding stream line %d: %w", events, err)
		}
		if ev.Index < 0 || ev.Index >= n {
			return fmt.Errorf("serve: stream event index %d out of range for %d specs", ev.Index, n)
		}
		if seen[ev.Index] {
			return fmt.Errorf("serve: stream delivered spec %d twice", ev.Index)
		}
		seen[ev.Index] = true
		events++
		fn(ev)
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("serve: reading stream: %w", err)
	}
	if events != n {
		return fmt.Errorf("serve: stream ended after %d of %d specs", events, n)
	}
	return nil
}
