package serve_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/serve"
)

// FuzzDecodeBatch feeds arbitrary bodies to the batch decoder every run
// request passes through. It must never panic; an accepted body holds at
// least one Spec and fits MaxBatchBytes, and a refused one is answered with
// a 4xx carrying a JSON ErrorResponse.
func FuzzDecodeBatch(f *testing.F) {
	for _, seed := range []string{
		`[{"workload":"threat-analysis","variant":"sequential","platform":"alpha","procs":1,"scale":0.02}]`,
		`[{"workload":"x"},{"workload":"y","params":{"work":3}}]`,
		`[{"workload":"serve-hook","procs":"one"}]`,
		`[]`, `[null]`, `{}`, `{half a batch`, ``, `[1,"a",{}]`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, serve.RunPath, bytes.NewReader(body))
		specs, ok := serve.DecodeBatch(rec, req)
		if ok {
			if len(specs) == 0 || len(body) > serve.MaxBatchBytes {
				t.Fatalf("accepted %d specs from a %d-byte body", len(specs), len(body))
			}
			return
		}
		if rec.Code < 400 || rec.Code >= 500 {
			t.Fatalf("refused batch answered %d, want a 4xx", rec.Code)
		}
		var er serve.ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error == "" {
			t.Fatalf("refused batch body %q is not an ErrorResponse (%v)", rec.Body.Bytes(), err)
		}
	})
}

// FuzzReadStream feeds arbitrary NDJSON to the stream reader behind
// Client.RunStream. It must never panic, and a nil error means exactly n
// events arrived with distinct in-range indices.
func FuzzReadStream(f *testing.F) {
	f.Add([]byte("{\"index\":1,\"record\":{\"key\":\"k\"}}\n{\"index\":0,\"error\":\"boom\"}\n"), uint8(2))
	f.Add([]byte("{\"index\":0}\n\n  \n"), uint8(1))
	f.Add([]byte("{\"index\":0}\n{\"index\":0}\n"), uint8(2))
	f.Add([]byte("{\"index\":-1}\n"), uint8(1))
	f.Add([]byte("{\"index\":0}"), uint8(3))
	f.Add([]byte("not json\n"), uint8(1))
	f.Add([]byte(""), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, n uint8) {
		seen := map[int]bool{}
		err := serve.ReadStreamForTest(bytes.NewReader(data), int(n), func(ev serve.StreamEvent) {
			if ev.Index < 0 || ev.Index >= int(n) || seen[ev.Index] {
				t.Fatalf("delivered index %d (n=%d, seen %v)", ev.Index, n, seen)
			}
			seen[ev.Index] = true
		})
		if err == nil && len(seen) != int(n) {
			t.Fatalf("nil error after %d of %d events", len(seen), n)
		}
	})
}
