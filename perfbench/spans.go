package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer of the program.
// Times are nanoseconds since the tracer's epoch. Group is the pass or
// request the span belongs to; Parent is the span that caused it (0: none).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Group  int64  `json:"group"`
	Name   string `json:"name"`
	Lane   string `json:"lane,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op, so call sites stay unconditional.
type tracer struct {
	epoch   time.Time
	mu      sync.Mutex
	spans   []span
	nextID  int64
	limit   int
	dropped int
}

func newTracer(limit int) *tracer { return &tracer{epoch: time.Now(), limit: limit} }

// now returns the current offset from the epoch (0 when untraced).
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

// id reserves a span id, so a parent can hand it to children before it
// ends.
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	return t.nextID
}

// add records s, assigning an id when s has none. Spans past the limit are
// counted but not kept, bounding memory on long fine-grained runs.
func (t *tracer) add(s span) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if s.ID == 0 {
		t.nextID++
		s.ID = t.nextID
	}
	if len(t.spans) < t.limit {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	return s.ID
}

// write stores the spans as JSON lines in path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// goid returns the calling goroutine's id. The cluster worker runs a
// codelet on the goroutine serving its HTTP request, so the id links a
// kernel span to the handler span around it. Traced runs only.
func goid() int64 {
	var buf [32]byte
	n := runtime.Stack(buf[:], false)
	b := buf[len("goroutine "):n]
	for i, c := range b {
		if c == ' ' {
			b = b[:i]
			break
		}
	}
	id, _ := strconv.ParseInt(string(b), 10, 64)
	return id
}
