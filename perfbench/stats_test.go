package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/taskrt"
)

func seq(lo, hi int) []float64 {
	var xs []float64
	for i := lo; i <= hi; i++ {
		xs = append(xs, float64(i))
	}
	return xs
}

func TestTailRule(t *testing.T) {
	for _, tc := range []struct {
		name    string
		xs      []float64
		value   float64
		pct     float64
		ok      bool
		samples int
	}{
		{"too few", seq(1, 10), 0, 0, false, 10},
		{"eleven", seq(1, 11), 1, 100.0 / 11, true, 11},
		{"hundred", seq(1, 100), 90, 90, true, 100},
		{"shuffled", []float64{7, 3, 12, 1, 9, 5, 11, 2, 8, 4, 6, 10}, 2, 100 * 2.0 / 12, true, 12},
	} {
		v, p, n, ok := tail(tc.xs)
		if v != tc.value || math.Abs(p-tc.pct) > 1e-9 || ok != tc.ok || n != tc.samples {
			t.Errorf("%s: tail = (%v, p%v, n=%d, %v), want (%v, p%v, n=%d, %v)", tc.name, v, p, n, ok, tc.value, tc.pct, tc.samples, tc.ok)
		}
		if ok {
			beyond := 0
			for _, x := range tc.xs {
				if x > v {
					beyond++
				}
			}
			if beyond < tailMinBeyond {
				t.Errorf("%s: only %d samples beyond the tail", tc.name, beyond)
			}
		}
	}
	// Ties count as not beyond: 95 equal values and 5 larger ones leave no
	// percentile with ten samples strictly above it.
	xs := append(make([]float64, 95), 1, 1, 1, 1, 1)
	if _, _, _, ok := tail(xs); ok {
		t.Error("tail of 95 ties and 5 larger values should not qualify")
	}
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	// One sender, a request due every 2ms; request 3 stalls for 60ms.
	var due []time.Duration
	for i := 0; i < 40; i++ {
		due = append(due, time.Duration(i)*2*time.Millisecond)
	}
	out := openLoop(due, 1, func(i int) error {
		if i == 3 {
			time.Sleep(60 * time.Millisecond)
		}
		return nil
	})
	r := rungOf(500, out)
	late := lateness(out)
	// Request 4 was due at 8ms but could only go out after the stall ended
	// (about 66ms): its latency counts that wait although it was served
	// instantly once sent.
	if r.Lat[4] < 45 || late[4] < 45 {
		t.Errorf("request 4 behind the stall: latency %.1fms, late %.1fms; want both ≥ 45ms", r.Lat[4], late[4])
	}
	if served := ms(out[4].Done - out[4].Sent); served > 20 {
		t.Errorf("request 4 took %.1fms once sent; the fake handler only stalls request 3", served)
	}
	// The stall's wait shrinks for later requests as the queue drains.
	if !(r.Lat[4] > r.Lat[10]) {
		t.Errorf("latency should fall as the backlog drains: lat[4]=%.1f lat[10]=%.1f", r.Lat[4], r.Lat[10])
	}
	if r.Lat[1] > 20 {
		t.Errorf("request 1, before the stall, took %.1fms", r.Lat[1])
	}
}

func TestPoissonScheduleIsSeeded(t *testing.T) {
	a := poissonSchedule(rand.New(rand.NewSource(7)), 1000, time.Second)
	b := poissonSchedule(rand.New(rand.NewSource(7)), 1000, time.Second)
	if len(a) != len(b) || len(a) < 900 || len(a) > 1100 {
		t.Fatalf("schedules of %d and %d arrivals, want the same count near 1000", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] || (i > 0 && a[i] < a[i-1]) {
			t.Fatalf("arrival %d differs or goes backwards", i)
		}
	}
}

// flat returns n latencies of v ms.
func flat(n int, v float64) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = v
	}
	return xs
}

func TestLadderMax(t *testing.T) {
	const limit = 10
	ok := func(rate float64) rung { return rung{Rate: rate, Lat: flat(1000, 2)} }
	// mark sets the first n requests of r to latency v.
	mark := func(r rung, n int, v float64) rung {
		for i := 0; i < n; i++ {
			r.Lat[i] = v
		}
		return r
	}
	// A failed request counts as a miss: 30% slow requests leave the
	// median within the limit, 30% slow plus 25% failed ones do not.
	slowOnly := mark(ok(300), 300, 3*limit)
	if !slowOnly.passes(limit) {
		t.Error("30% slow requests should pass a median limit")
	}
	withFailed := mark(ok(300), 300, 3*limit)
	for i := 300; i < 550; i++ {
		withFailed.Lat[i] = math.Inf(1)
	}
	if withFailed.passes(limit) {
		t.Error("30% slow and 25% failed requests should fail a median limit")
	}
	// With most requests failed the score is infinite, so the ladder stops
	// exactly at the rung below, whatever rungs above it would do.
	failing := mark(ok(300), 600, math.Inf(1))
	if got := ladderMax([]rung{ok(100), ok(200), failing, ok(400)}, limit); got != 200 {
		t.Errorf("failed requests: max rate %v, want 200", got)
	}
	if got := ladderMax([]rung{mark(ok(100), 600, math.Inf(1))}, limit); got != 0 {
		t.Errorf("failing first rung: max rate %v, want 0", got)
	}
	if got := ladderMax([]rung{ok(100), ok(200)}, limit); got != 200 {
		t.Errorf("all rungs pass: max rate %v, want 200", got)
	}
	// Interpolation: scores 5 and 20 around a limit of 10 cross halfway in
	// log space.
	if got := ladderMax([]rung{{Rate: 100, Lat: flat(1000, 5)}, {Rate: 200, Lat: flat(1000, 20)}}, limit); math.Abs(got-150) > 1e-9 {
		t.Errorf("interpolated max rate %v, want 150", got)
	}
}

func TestShipRatio(t *testing.T) {
	// n=2: A, B and C hold 3 × 4 × 8 = 96 bytes.
	for _, tc := range []struct {
		req, resp int64
		want      float64
	}{{96, 0, 1}, {64, 32, 1}, {192, 96, 3}} {
		if got := shipRatio(tc.req, tc.resp, 2); got != tc.want {
			t.Errorf("shipRatio(%d, %d, 2) = %v, want %v", tc.req, tc.resp, got, tc.want)
		}
	}
	// The cluster workload's own scale: 81 MB shipped for n=1024 is a
	// ratio of about 3.2 against 25 MB of operands.
	if got := shipRatio(81e6, 0, 1024); math.Abs(got-3.22) > 0.01 {
		t.Errorf("shipRatio(81 MB, n=1024) = %v, want about 3.22", got)
	}
}

func TestCriticalPath(t *testing.T) {
	// Diamond 0 → {1, 2} → 3, plus an independent long task 4.
	dur := []float64{1, 5, 2, 1, 6.5}
	preds := [][]int{nil, {0}, {0}, {1, 2}, nil}
	length, chain := criticalPath(dur, preds)
	if length != 7 || len(chain) != 3 || chain[0] != 0 || chain[1] != 1 || chain[2] != 3 {
		t.Errorf("critical path = %v via %v, want 7 via [0 1 3]", length, chain)
	}
	dur[4] = 8
	if length, chain = criticalPath(dur, preds); length != 8 || len(chain) != 1 || chain[0] != 4 {
		t.Errorf("critical path = %v via %v, want 8 via [4]", length, chain)
	}
}

func TestDAGPredecessors(t *testing.T) {
	pl, err := core.NewBuilder("t").Master("host", core.Arch("x86"), core.Qty(1)).Build()
	if err != nil {
		t.Fatal(err)
	}
	rt, err := taskrt.New(taskrt.Config{Platform: pl})
	if err != nil {
		t.Fatal(err)
	}
	a, b := rt.NewHandle("a", 8, nil), rt.NewHandle("b", 8, nil)
	cl, _ := taskrt.NewCodelet("k", taskrt.Impl{Arch: "x86", Func: func(*taskrt.TaskContext) error { return nil }})
	g := newDAG()
	g.add(cl, 1, 0, taskrt.RW(a))              // 0 writes a
	g.add(cl, 1, 0, taskrt.R(a), taskrt.RW(b)) // 1 reads a (RAW on 0), writes b
	g.add(cl, 1, 0, taskrt.R(a))               // 2 reads a (RAW on 0)
	g.add(cl, 1, 0, taskrt.RW(a))              // 3 writes a: WAW on 0, WAR on 1 and 2
	g.add(cl, 1, 0, taskrt.R(b), taskrt.R(a))  // 4 reads b (1) and a (3)
	want := [][]int{nil, {0}, {0}, {0, 1, 2}, {1, 3}}
	for i, w := range want {
		got := g.meta[i].Preds
		if len(got) != len(w) {
			t.Fatalf("task %d preds %v, want %v", i, got, w)
		}
		for j := range w {
			if got[j] != w[j] {
				t.Fatalf("task %d preds %v, want %v", i, got, w)
			}
		}
	}
}

func TestCheckAccounting(t *testing.T) {
	ok := passStats{Wall: 1, Workers: 2, Recs: []taskRec{
		{Start: 0, KernelEnd: 3e8, End: 4e8, Worker: 0, Done: true},
		{Start: 4e8, KernelEnd: 9e8, End: 9e8, Worker: 0, Done: true},
		{Start: 1e8, KernelEnd: 2e8, End: 2e8, Worker: 1, Done: true},
	}}
	if err := ok.checkAccounting(); err != nil {
		t.Errorf("valid pass rejected: %v", err)
	}
	overlap := ok
	overlap.Recs = append([]taskRec(nil), ok.Recs...)
	overlap.Recs[1].Start = 3e8
	if overlap.checkAccounting() == nil {
		t.Error("overlapping tasks on one worker accepted")
	}
	missing := ok
	missing.Recs = append([]taskRec(nil), ok.Recs...)
	missing.Recs[2].Done = false
	if missing.checkAccounting() == nil {
		t.Error("a task without an execution record accepted")
	}
}

func TestFactorSolveMatchesReference(t *testing.T) {
	b, err := setupFactorFine(3)
	if err != nil {
		t.Fatal(err)
	}
	f := b.(*factorBench)
	tr := newTracer(1 << 16)
	for _, kind := range []string{"cholesky", "lu"} {
		p, err := newFactorProblem(kind, 64, 16, 3)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.solve(p, tr); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		// A wrong reference must be caught.
		p.ref.Set(5, 3, p.ref.At(5, 3)+1e-6)
		if _, err := f.solve(p, nil); err == nil {
			t.Fatalf("%s: a corrupted reference was accepted", kind)
		}
	}
	m := metrics{}
	f.layers(m)
	if m["taskrt.critpath_s"].Value <= 0 || m["blas.kernel_s"].Value <= 0 {
		t.Errorf("traced layers missing: %v", m)
	}
}

func TestJSONNumber(t *testing.T) {
	body := []byte(`{"count":17,"platform":"p","pus":[{"count":3}],"seconds":1.5e-06}`)
	if got := jsonNumber(body, "count"); got != 17 {
		t.Errorf("count = %v", got)
	}
	if got := jsonNumber(body, "seconds"); got != 1.5e-6 {
		t.Errorf("seconds = %v", got)
	}
	if got := jsonNumber(body, "missing"); !math.IsNaN(got) {
		t.Errorf("missing = %v", got)
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json names exactly the workloads
// and metrics this program prints, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("BENCHMARK.json not found next to the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q vs %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d here", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: %s %s vs %s %s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

// TestLayersJSON checks that the open-loop plans documented in layers.json
// are the ones the program runs.
func TestLayersJSON(t *testing.T) {
	blob, err := os.ReadFile("layers.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		OpenLoop map[string]struct {
			Lo      float64 `json:"lo_rps"`
			Hi      float64 `json:"hi_rps"`
			First   float64 `json:"ladder_first_rps"`
			LimitMs float64 `json:"limit_ms"`
			Senders int     `json:"senders"`
		} `json:"open_loop"`
		Ladder struct {
			Rungs int     `json:"rungs"`
			Step  float64 `json:"step"`
		} `json:"ladder"`
	}
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Ladder.Rungs != ladderSteps || doc.Ladder.Step != ladderStep {
		t.Errorf("ladder %+v, program runs %d rungs ×%v", doc.Ladder, ladderSteps, ladderStep)
	}
	for _, w := range workloads {
		p, ok := doc.OpenLoop[w.name]
		if !ok || p.Lo != w.plan.lo || p.Hi != w.plan.hi || p.First != w.plan.first || p.LimitMs != w.plan.limitMs || p.Senders != w.plan.senders {
			t.Errorf("%s: layers.json %+v, program %+v", w.name, p, w.plan)
		}
	}
}
