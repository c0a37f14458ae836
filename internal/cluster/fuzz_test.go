package cluster

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/taskrt"
)

// FuzzWorkerExecute throws arbitrary bytes at a worker's POST /v1/execute,
// the decoder of the one request body a worker takes from the network. The
// contract under fuzz: the handler never panics and answers either 200 with
// a body that decodes as an ExecResponse, or 400. Each input gets a fresh
// worker, so no outcome depends on what an earlier input cached. The seed
// corpus in testdata/fuzz/FuzzWorkerExecute (replayed by every plain
// `go test`) holds a valid inline request, a cache-reference request, a
// truncated gob, an empty body and every crasher found so far.
func FuzzWorkerExecute(f *testing.F) {
	noop, err := taskrt.NewCodelet("noop",
		taskrt.Impl{Arch: "x86", Func: func(*taskrt.TaskContext) error { return nil }})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		w, err := NewWorker(WorkerConfig{Name: "fuzz", Archs: []string{"x86"}, Codelets: []*taskrt.Codelet{noop}})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		w.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, PathExecute, bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusBadRequest:
		case http.StatusOK:
			var resp ExecResponse
			if err := decodeGob(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("200 answer does not decode as an ExecResponse: %v", err)
			}
		default:
			t.Fatalf("status %d, want 200 or 400: %s", rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
		}
	})
}
