// Command perfbench is the repository benchmark: time to a verified
// solution on three task-engine workloads and open-loop latency of the
// platform registry service, each broken down by layer.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it times
// the calls it makes into each layer (blas kernels, the task runtime, the
// cluster protocol, the HTTP server, the registry and the predictor) and
// prints the per-layer metrics, writing its spans next to its binary. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Every pass and request is verified; any failure makes the exit code 1.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/blas"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		v = -1 // JSON has no infinities; only a failed run can produce one
	}
	m[name] = metric{Value: v, Unit: unit}
}

// bench is one workload after set-up.
type bench interface {
	// pass runs one verified unit of work and returns its solve time in
	// seconds; tr is nil in untraced passes.
	pass(tr *tracer) (float64, error)
	// job serves open-loop request req (unique within the run).
	job(req int64, tr *tracer) error
	// layers adds the per-layer metrics gathered by traced calls.
	layers(m metrics)
	close()
}

// handlerTimer is implemented by benches that time each request inside the
// program, so the harness can split client latency into inside and outside.
type handlerTimer interface {
	handlerMs(req int64) (float64, bool)
}

// loadPlan fixes a workload's open-loop load: two offered rates for the
// latency metrics, and the first rung of the ladder searched for the
// highest rate whose median latency stays within limitMs.
type loadPlan struct {
	lo, hi, first float64
	limitMs       float64
	senders       int
}

type workload struct {
	name  string
	setup func(seed int64) (bench, error)
	plan  loadPlan
}

// ladderSteps and ladderStep fix every workload's rate ladder: ladderSteps
// rungs from the plan's first rate, each ladderStep times the last.
const (
	ladderSteps = 10
	ladderStep  = 1.3
)

var workloads = []workload{
	{"factor-skewed", setupFactorSkewed, loadPlan{lo: 40, hi: 100, first: 80, limitMs: 20, senders: 2}},
	{"factor-fine", setupFactorFine, loadPlan{lo: 400, hi: 1200, first: 800, limitMs: 20, senders: 2}},
	{"cluster-gemm", setupClusterGemm, loadPlan{lo: 20, hi: 60, first: 40, limitMs: 20, senders: 2}},
	{"serve-registry", setupServeRegistry, loadPlan{lo: 1000, hi: 1500, first: 2000, limitMs: 20, senders: 2}},
}

// Metric names and units, in the order BENCHMARK.json lists them.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"}, {"solve_s.p50", "s"}, {"solve_s.tail", "s"},
	{"lat_ms.lo.p50", "ms"}, {"lat_ms.hi.p50", "ms"}, {"rss_peak_mb", "MB"},
}

var perLayer = func() []struct{ name, unit string } {
	l := []struct{ name, unit string }{{"blas.kernel_s", "s"}}
	for _, k := range kernelOrder {
		l = append(l, struct{ name, unit string }{"blas.gflops." + k, "GF/s"})
	}
	for _, s := range strings.Fields(`blas.ref_gflops:GF/s blas.peak_frac:ratio
		taskrt.submit_us_per_task:us taskrt.overhead_us_per_task:us taskrt.idle_frac:ratio
		taskrt.ready_lag_us.p50:us taskrt.ready_lag_us.p99:us taskrt.critpath_s:s
		taskrt.critpath_ratio:ratio taskrt.steals:count taskrt.fast_share:ratio
		cluster.rpc_count:count cluster.rpc_ms.p50:ms cluster.rpc_ms.p99:ms cluster.req_mb:MB
		cluster.resp_mb:MB cluster.ship_ratio:ratio cluster.worker_handle_ms.p50:ms
		cluster.worker_overhead_ms.p50:ms cluster.kernel_ms.p50:ms cluster.node_util:ratio
		cluster.resubmits:count
		server.handle_us.query.p50:us server.handle_us.query.p99:us
		server.handle_us.predict.p50:us server.handle_us.predict.p99:us
		server.handle_us.observe.p50:us server.handle_us.observe.p99:us
		server.handle_us.put.p50:us server.handle_us.put.p99:us server.outside_ms.hi.p99:ms
		registry.query_us.hit:us registry.query_us.miss:us registry.cache_hit_ratio:ratio
		registry.put_us:us predict.predict_us:us predict.observe_us:us
		loadgen.late_ms.p99:ms loadgen.lat_ms.lo.p90:ms loadgen.lat_ms.lo.p99:ms
		loadgen.lat_ms.hi.p90:ms loadgen.lat_ms.hi.p99:ms loadgen.max_rate_rps:1/s trace.overhead_frac:ratio`) {
		name, unit, _ := strings.Cut(s, ":")
		l = append(l, struct{ name, unit string }{name, unit})
	}
	return l
}()

// Shares of --seconds given to each measured phase. The rate ladder feeds
// a per-layer metric only, so it runs in traced runs alone and untraced
// runs spend that time on the gated phases.
var (
	untracedShares = shares{pass: 0.5, lo: 0.25, hi: 0.25}
	tracedShares   = shares{pass: 0.4, lo: 0.15, hi: 0.15, ladder: 0.3}
)

type shares struct{ pass, lo, hi, ladder float64 }

const (
	rounds    = 4                 // alternating lo/hi blocks
	minPasses = 2 * tailMinBeyond // so the tail is at least the median
	setups    = 5                 // set-up repeats; setup_s is their median
)

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "workload seed: inputs, arrival schedule and mix derive from it")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	traced := flag.Int("trace", 0, "1: traced run printing per-layer metrics")
	flag.Parse()
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or bad --seconds\n", *name)
		os.Exit(2)
	}
	fmt.Printf("host: NumCPU=%d GOMAXPROCS=%d isa=%s go=%s seed=%d workload=%s trace=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), blas.KernelISA(), runtime.Version(), *seed, wl.name, *traced)
	if wl.name == "factor-skewed" {
		fmt.Println("note: factor-skewed keeps about 1 core busy (3 of its 4 workers mostly sleep); it is not a scaling point")
	}
	steal0, total0 := cpuSteal()
	res, err := run(wl, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1)
	if steal1, total1 := cpuSteal(); total1 > total0 {
		fmt.Printf("host: %.1f%% of CPU time was stolen by the hypervisor during the run\n", 100*float64(steal1-steal0)/float64(total1-total0))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func run(wl *workload, seed int64, d time.Duration, traced bool) (*result, error) {
	var setupS []float64
	var b bench
	for i := 0; i < setups; i++ {
		if b != nil {
			b.close()
		}
		t0 := time.Now()
		var err error
		if b, err = wl.setup(seed); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer b.close()

	var tr *tracer
	share := untracedShares
	if traced {
		tr = newTracer(100_000)
		share = tracedShares
	}
	res := &result{Correct: true, Metrics: metrics{}}
	fail := func(what string, err error) {
		res.Failed++
		if res.Failed <= 5 {
			fmt.Fprintf(os.Stderr, "perfbench: %s failed: %v\n", what, err)
		}
	}

	// Passes. A traced run alternates traced and untraced passes, so the
	// tracing overhead is measured within one run.
	var solve, solveTraced []float64
	deadline := time.Now().Add(time.Duration(share.pass * float64(d)))
	for i := 0; i < minPasses || time.Now().Before(deadline); i++ {
		ptr := tr
		if i%2 == 1 {
			ptr = nil
		}
		res.Attempted++
		s, err := b.pass(ptr)
		if err != nil {
			fail(fmt.Sprintf("pass %d", i), err)
			continue
		}
		if ptr != nil {
			solveTraced = append(solveTraced, s)
		} else {
			solve = append(solve, s)
		}
	}

	// Open-loop phases.
	rng := rand.New(rand.NewSource(seed))
	var reqBase int64
	phase := func(rate float64, share float64) (out []outcome, ids []int64) {
		due := poissonSchedule(rng, rate, time.Duration(share*float64(d)))
		base := reqBase
		reqBase += int64(len(due))
		out = openLoop(due, wl.plan.senders, func(i int) error { return b.job(base+int64(i), tr) })
		for i, o := range out {
			ids = append(ids, base+int64(i))
			res.Attempted++
			if o.Err != nil {
				fail(fmt.Sprintf("request %d at %.0f/s", base+int64(i), rate), o.Err)
			}
		}
		return out, ids
	}
	// The lo and hi rates run in alternating blocks, so a slow spell of the
	// host falls on both alike.
	var loOut, hiOut []outcome
	var hiIDs []int64
	for k := 0; k < rounds; k++ {
		out, _ := phase(wl.plan.lo, share.lo/rounds)
		loOut = append(loOut, out...)
		out, ids := phase(wl.plan.hi, share.hi/rounds)
		hiOut, hiIDs = append(hiOut, out...), append(hiIDs, ids...)
	}
	lo, hi := rungOf(wl.plan.lo, loOut), rungOf(wl.plan.hi, hiOut)
	var rungs []rung
	for k, rate := 0, wl.plan.first; traced && k < ladderSteps; k, rate = k+1, rate*ladderStep {
		out, _ := phase(rate, share.ladder/ladderSteps)
		rungs = append(rungs, rungOf(rate, out))
		if !rungs[k].passes(wl.plan.limitMs) {
			break
		}
	}
	res.Correct = res.Failed == 0

	m := res.Metrics
	tv, tpct, tn, tok := tail(solve)
	fmt.Printf("solve: %d untraced verified passes, p50 %.6fs", len(solve), median(solve))
	if tok {
		fmt.Printf(", tail p%.1f (at least %d of %d passes beyond it) %.6fs", tpct, tailMinBeyond, tn, tv)
	}
	fmt.Println()
	fmt.Printf("open loop: lo %.0f/s p50 %.3fms p90 %.3fms p99 %.3fms; hi %.0f/s p50 %.3fms p90 %.3fms p99 %.3fms; attempted %d failed %d\n",
		lo.Rate, quantile(lo.Lat, 0.5), quantile(lo.Lat, 0.9), quantile(lo.Lat, 0.99),
		hi.Rate, quantile(hi.Lat, 0.5), quantile(hi.Lat, 0.9), quantile(hi.Lat, 0.99),
		res.Attempted, res.Failed)
	if !traced {
		if !tok {
			return nil, fmt.Errorf("only %d untraced passes: too few for the tail rule", len(solve))
		}
		m.set("setup_s", median(setupS), "s")
		m.set("solve_s.p50", median(solve), "s")
		m.set("solve_s.tail", tv, "s")
		m.set("lat_ms.lo.p50", quantile(lo.Lat, 0.5), "ms")
		m.set("lat_ms.hi.p50", quantile(hi.Lat, 0.5), "ms")
		m.set("rss_peak_mb", rssPeakMB(), "MB")
		return res, nil
	}

	b.layers(m)
	maxRate := ladderMax(rungs, wl.plan.limitMs)
	fmt.Printf("rate ladder: %d rungs from %.0f/s, max rate %.0f/s with median latency within %.0fms\n", len(rungs), wl.plan.first, maxRate, wl.plan.limitMs)
	m.set("loadgen.max_rate_rps", maxRate, "1/s")
	m.set("loadgen.late_ms.p99", quantile(lateness(hiOut), 0.99), "ms")
	m.set("loadgen.lat_ms.lo.p90", quantile(lo.Lat, 0.9), "ms")
	m.set("loadgen.lat_ms.lo.p99", quantile(lo.Lat, 0.99), "ms")
	m.set("loadgen.lat_ms.hi.p90", quantile(hi.Lat, 0.9), "ms")
	m.set("loadgen.lat_ms.hi.p99", quantile(hi.Lat, 0.99), "ms")
	m.set("trace.overhead_frac", median(solveTraced)/median(solve)-1, "ratio")
	if ht, ok := b.(handlerTimer); ok {
		var outside []float64
		for i, o := range hiOut {
			if h, ok := ht.handlerMs(hiIDs[i]); ok && o.Err == nil {
				outside = append(outside, ms(o.Done-o.Due)-h)
			}
		}
		m.set("server.outside_ms.hi.p99", quantile(outside, 0.99), "ms")
	}
	// Layers a workload does not exercise read 0.
	for _, l := range perLayer {
		if _, ok := m[l.name]; !ok {
			m.set(l.name, 0, l.unit)
		}
	}
	// Spans go next to the binary, in the build directory.
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	path := filepath.Join(filepath.Dir(exe), "perfbench-spans", fmt.Sprintf("%s-seed%d.jsonl", wl.name, seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	fmt.Printf("trace: %d spans written to %s (%d dropped past the in-memory limit)\n", len(tr.spans), path, tr.dropped)
	return res, nil
}

// cpuSteal reads the host-wide steal and total CPU time (in clock ticks)
// from /proc/stat; zero where it is unavailable.
func cpuSteal() (steal, total int64) {
	blob, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(blob), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseInt(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// rssPeakMB reads the process's peak resident set size (VmHWM).
func rssPeakMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}
