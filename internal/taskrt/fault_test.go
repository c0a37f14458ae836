package taskrt

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/discover"
	"repro/internal/dynamic"
	"repro/internal/perfmodel"
	"repro/internal/trace"
)

func TestFaultPlanValidate(t *testing.T) {
	bad := []FaultPlan{
		{Events: []FaultEvent{{AtTime: 1}}},                              // no unit
		{Events: []FaultEvent{{Unit: "dev0"}}},                           // no trigger
		{Events: []FaultEvent{{Unit: "dev0", AtTime: 1, AfterTasks: 1}}}, // both triggers
		{Events: []FaultEvent{{Unit: "dev0", AtTime: 1, RecoverAfter: -1}}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("plan %d should fail validation", i)
		}
	}
	good := FaultPlan{Events: []FaultEvent{
		{Unit: "dev0", AtTime: 0.5, Hang: true},
		{Unit: "dev1", AfterTasks: 3, RecoverAfter: 1},
	}}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	// Invalid plans are rejected at construction.
	if _, err := New(Config{
		Platform: discover.MustPlatform("xeon-2gpu"), Mode: Sim,
		Faults: &FaultPlan{Events: []FaultEvent{{Unit: "dev0"}}},
	}); err == nil {
		t.Fatal("New must reject an invalid fault plan")
	}
}

// simFaultRun executes `tiles` independent GEMM tiles under a fault plan.
func simFaultRun(t *testing.T, sched string, tiles int, plan *FaultPlan, tracker *dynamic.Tracker, tr *trace.Trace) *Report {
	t.Helper()
	rt, err := New(Config{
		Platform:  discover.MustPlatform("xeon-2gpu"),
		Mode:      Sim,
		Scheduler: sched,
		Faults:    plan,
		Tracker:   tracker,
		Trace:     tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	submitTiles(t, rt, tiles, 2e9, 4<<20)
	rep, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestSimFaultCrashBlacklistsAndCompletes(t *testing.T) {
	for _, sched := range []string{"eager", "ws", "dmda", "heft", "random"} {
		plan := &FaultPlan{Events: []FaultEvent{
			{Unit: "dev0", AtTime: 0.001},
			{Unit: "dev1", AfterTasks: 2},
		}}
		rep := simFaultRun(t, sched, 48, plan, nil, nil)
		if rep.Tasks != 48 {
			t.Fatalf("%s: tasks = %d", sched, rep.Tasks)
		}
		sum := 0
		for _, u := range rep.PerUnit {
			sum += u.Tasks
		}
		if sum != 48 {
			t.Fatalf("%s: per-unit successful tasks = %d, want 48", sched, sum)
		}
		if rep.FailedAttempts == 0 || rep.RetriedTasks == 0 {
			t.Fatalf("%s: no recorded failures: %+v", sched, rep)
		}
		if rep.BlacklistedUnits() != 2 || rep.Blacklisted[0] != "dev0" || rep.Blacklisted[1] != "dev1" {
			t.Fatalf("%s: blacklisted = %v", sched, rep.Blacklisted)
		}
		if !strings.Contains(rep.String(), "blacklisted=[dev0 dev1]") {
			t.Fatalf("%s: report misses fault summary: %s", sched, rep.String())
		}
	}
}

func TestSimFaultDeterministicByteForByte(t *testing.T) {
	plan := &FaultPlan{Seed: 7, Events: []FaultEvent{
		{Unit: "dev0", AtTime: 0.002, Hang: true},
		{Unit: "dev1", AfterTasks: 1, RecoverAfter: 0.01},
		{Unit: "host.3", AfterTasks: 2},
	}}
	var first string
	for i := 0; i < 3; i++ {
		tr := trace.New()
		rep := simFaultRun(t, "dmda", 40, plan, nil, tr)
		out := rep.String() + tr.Gantt(64) + tr.Summary()
		if i == 0 {
			first = out
			continue
		}
		if out != first {
			t.Fatalf("run %d differs from run 0:\n%s\n---\n%s", i, out, first)
		}
	}
}

func TestSimFaultRecoveryReadmitsUnit(t *testing.T) {
	// dev0 suffers a transient fault and recovers almost immediately; it
	// must not end the run blacklisted and should execute tasks afterwards.
	tr := trace.New()
	plan := &FaultPlan{Events: []FaultEvent{{Unit: "dev0", AfterTasks: 1, RecoverAfter: 1e-4}}}
	rep := simFaultRun(t, "dmda", 64, plan, nil, tr)
	if rep.BlacklistedUnits() != 0 {
		t.Fatalf("transient fault left units blacklisted: %v", rep.Blacklisted)
	}
	if rep.FailedAttempts == 0 {
		t.Fatal("fault did not fire")
	}
	if u, ok := rep.UnitByID("dev0"); !ok || u.Tasks == 0 {
		t.Fatalf("recovered dev0 ran no tasks: %+v", u)
	}
	if len(tr.OfKind(trace.Recover)) != 1 || len(tr.OfKind(trace.Failure)) != 1 {
		t.Fatalf("trace kinds: recover=%d failure=%d", len(tr.OfKind(trace.Recover)), len(tr.OfKind(trace.Failure)))
	}
}

func TestSimFaultHangCostsWatchdogTimeout(t *testing.T) {
	crash := simFaultRun(t, "eager", 32, &FaultPlan{Events: []FaultEvent{{Unit: "dev0", AfterTasks: 1}}}, nil, nil)
	hang := simFaultRun(t, "eager", 32, &FaultPlan{Events: []FaultEvent{{Unit: "dev0", AfterTasks: 1, Hang: true}}}, nil, nil)
	if hang.WatchdogTrips != 1 || crash.WatchdogTrips != 0 {
		t.Fatalf("watchdog trips: hang=%d crash=%d", hang.WatchdogTrips, crash.WatchdogTrips)
	}
	// The watchdog holds the hung unit for estimate×factor, so the hung run
	// can only be slower or equal.
	if hang.MakespanSeconds < crash.MakespanSeconds {
		t.Fatalf("hang (%g) finished before crash (%g)", hang.MakespanSeconds, crash.MakespanSeconds)
	}
}

func TestSimFaultTrackerWiring(t *testing.T) {
	tracker, err := dynamic.NewTracker(discover.MustPlatform("xeon-2gpu"))
	if err != nil {
		t.Fatal(err)
	}
	var events []string
	tracker.OnChange(func(e dynamic.Event) {
		events = append(events, e.Kind.String()+":"+e.PU)
	})
	// dev1 is offline before the run starts: the engine must not use it.
	if err := tracker.SetOffline("dev1"); err != nil {
		t.Fatal(err)
	}
	plan := &FaultPlan{Events: []FaultEvent{{Unit: "dev0", AtTime: 0.001}}}
	rep := simFaultRun(t, "dmda", 48, plan, tracker, nil)
	if u, ok := rep.UnitByID("dev1"); !ok || u.Tasks != 0 {
		t.Fatalf("pre-offline dev1 executed %d tasks", u.Tasks)
	}
	if tracker.IsOnline("dev0") {
		t.Fatal("dev0 failure was not mirrored into the tracker")
	}
	found := false
	for _, e := range events {
		if e == "offline:dev0" {
			found = true
		}
	}
	if !found {
		t.Fatalf("tracker observer missed the in-flight failure: %v", events)
	}
	if rep.BlacklistedUnits() != 1 || rep.Blacklisted[0] != "dev0" {
		t.Fatalf("blacklisted = %v (pre-offline units must not be counted)", rep.Blacklisted)
	}
}

func TestSimFaultVariantFallbackToCPU(t *testing.T) {
	// Both GPUs die almost immediately: the multi-variant DGEMM codelet must
	// fall back to its x86 implementation and every task still completes.
	plan := &FaultPlan{Events: []FaultEvent{
		{Unit: "dev0", AtTime: 1e-6},
		{Unit: "dev1", AtTime: 1e-6},
	}}
	rep := simFaultRun(t, "dmda", 48, plan, nil, nil)
	if got := rep.TasksOnArch("x86"); got != 48 {
		t.Fatalf("x86 ran %d of 48 tasks after GPU loss", got)
	}
	if rep.BlacklistedUnits() != 2 {
		t.Fatalf("blacklisted = %v", rep.Blacklisted)
	}
}

func TestSimFaultDataRecoveredFromHostMirror(t *testing.T) {
	// A serialized chain of readwrite tasks on one handle, with both GPUs
	// dying on their second attempt. Each device write is checkpointed to the
	// host memory node, so when a device dies the chain continues from the
	// host copy — without the write-back mirror, invalidating the dead
	// device's node would orphan the handle's only valid copy and Run would
	// fail with a data-loss error.
	rt, err := New(Config{
		Platform:  discover.MustPlatform("xeon-2gpu"),
		Mode:      Sim,
		Scheduler: "dmda", // data-aware: keeps the chain on the fast GPUs until they die
		Faults: &FaultPlan{Events: []FaultEvent{
			{Unit: "dev0", AfterTasks: 2},
			{Unit: "dev1", AfterTasks: 2},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewCodelet("step",
		Impl{Arch: "gpu", SpeedFactor: 20},
		Impl{Arch: "x86", Func: func(*TaskContext) error { return nil }})
	if err != nil {
		t.Fatal(err)
	}
	h := rt.NewHandle("data", 4<<20, nil)
	const steps = 6
	for i := 0; i < steps; i++ {
		if err := rt.Submit(&Task{Codelet: cl, Accesses: []Access{RW(h)}, Flops: 4e9}); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tasks != steps || rep.FailedAttempts == 0 {
		t.Fatalf("report: %+v", rep)
	}
	if rep.BlacklistedUnits() != 2 {
		t.Fatalf("blacklisted = %v", rep.Blacklisted)
	}
	// After both GPUs die mid-chain, the remaining steps must fall back to
	// the x86 variant and read the handle from the host mirror.
	if rep.TasksOnArch("x86") == 0 {
		t.Fatalf("no x86 fallback executions: %+v", rep.PerUnit)
	}
}

func TestSimFaultMaxAttemptsExhausted(t *testing.T) {
	// The only unit of a 1-core platform fails transiently on every attempt:
	// the runtime must give up after MaxAttempts instead of looping forever.
	rt, err := New(Config{
		Platform:  discover.MustPlatform("xeon-1core"),
		Mode:      Sim,
		Scheduler: "eager",
		Retry:     RetryPolicy{MaxAttempts: 3},
		Faults: &FaultPlan{Events: []FaultEvent{
			{Unit: "host", AfterTasks: 1, RecoverAfter: 1e-3},
			{Unit: "host", AfterTasks: 2, RecoverAfter: 1e-3},
			{Unit: "host", AfterTasks: 3, RecoverAfter: 1e-3},
			{Unit: "host", AfterTasks: 4, RecoverAfter: 1e-3},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	cl := noopCodelet(t, "doomed")
	if err := rt.Submit(&Task{Codelet: cl, Flops: 1e9}); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(); err == nil || !strings.Contains(err.Error(), "failed 3 attempts") {
		t.Fatalf("err = %v", err)
	}
}

func TestSimFaultAllUnitsGone(t *testing.T) {
	// A GPU-only codelet whose every capable unit dies: pickUnit must report
	// the blacklisting instead of deadlocking.
	rt, err := New(Config{
		Platform:  discover.MustPlatform("xeon-2gpu"),
		Mode:      Sim,
		Scheduler: "eager",
		Faults: &FaultPlan{Events: []FaultEvent{
			{Unit: "dev0", AfterTasks: 1},
			{Unit: "dev1", AfterTasks: 1},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	gpuCl, err := NewCodelet("gpu-only", Impl{Arch: "gpu"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := rt.Submit(&Task{Codelet: gpuCl, Flops: 1e9}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := rt.Run(); err == nil || !strings.Contains(err.Error(), "blacklisted") {
		t.Fatalf("err = %v", err)
	}
}

// Property-based: any seeded random fault plan over the two GPUs leaves the
// CPU cores alive, so every task graph completes with exactly one successful
// execution per task, and repeated runs are bit-for-bit deterministic.
func TestQuickSimRandomFaultPlansComplete(t *testing.T) {
	f := func(seed int64, w uint8) bool {
		tiles := int(w%16) + 8
		plan := RandomFaultPlan(seed, []string{"dev0", "dev1", "host.1"}, 0.05)
		makespans := [2]float64{}
		for round := 0; round < 2; round++ {
			rt, err := New(Config{
				Platform:  discover.MustPlatform("xeon-2gpu"),
				Mode:      Sim,
				Scheduler: "dmda",
				Faults:    plan,
				Retry:     RetryPolicy{MaxAttempts: 12},
			})
			if err != nil {
				return false
			}
			submitTiles(t, rt, tiles, 2e9, 4<<20)
			rep, err := rt.Run()
			if err != nil || rep.Tasks != tiles {
				t.Logf("seed %d: %v", seed, err)
				return false
			}
			sum := 0
			for _, u := range rep.PerUnit {
				sum += u.Tasks
			}
			if sum != tiles {
				return false
			}
			makespans[round] = rep.MakespanSeconds
		}
		return makespans[0] == makespans[1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestRealFaultInjectionRetriesAndBlacklists(t *testing.T) {
	var runs atomic.Int64
	// The kernel must yield so every worker goroutine gets to pick tasks
	// (on GOMAXPROCS=1 an instant kernel lets one worker drain the queue
	// before the faulty workers ever start).
	cl, err := NewCodelet("count", Impl{Arch: "x86", Func: func(*TaskContext) error {
		runs.Add(1)
		time.Sleep(2 * time.Millisecond)
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(Config{
		Platform: cpuPlatform(t, 4),
		Mode:     Real,
		Workers:  4,
		Faults: &FaultPlan{Events: []FaultEvent{
			{Unit: "worker1", AfterTasks: 1},
			{Unit: "worker2", AfterTasks: 1, RecoverAfter: 0.005},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 24
	for i := 0; i < n; i++ {
		if err := rt.Submit(&Task{Codelet: cl}); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := runs.Load(); got != n {
		t.Fatalf("kernel ran %d times, want %d (injected faults must not execute the kernel)", got, n)
	}
	if rep.FailedAttempts != 2 || rep.RetriedTasks == 0 {
		t.Fatalf("failures=%d retried=%d", rep.FailedAttempts, rep.RetriedTasks)
	}
	if rep.BlacklistedUnits() != 1 || rep.Blacklisted[0] != "worker1" {
		t.Fatalf("blacklisted = %v (worker2 recovered)", rep.Blacklisted)
	}
	if u, ok := rep.UnitByID("worker1"); !ok || u.Tasks != 0 {
		t.Fatalf("dead worker1 completed %d tasks", u.Tasks)
	}
}

// Heterogeneous workers under dmda: killing the fast worker on its first
// attempt must not lose tasks — the retry path re-routes them, setOffline
// keeps further placements away from the dead worker, and the steal sweep
// drains anything already sitting in its queue.
func TestRealDmdaFaultHeteroCompletes(t *testing.T) {
	var runs atomic.Int64
	kernel := func(*TaskContext) error {
		runs.Add(1)
		time.Sleep(2 * time.Millisecond)
		return nil
	}
	cl, err := NewCodelet("hcount",
		Impl{Arch: "x86", Func: kernel},
		Impl{Arch: "x86slow", Func: kernel})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(Config{
		Platform:  heteroPlatform(t, 3),
		Mode:      Real,
		Scheduler: "dmda",
		Workers:   4,
		Models:    perfmodel.NewStore(), // cold: exercises the warm-up paths
		Faults: &FaultPlan{Events: []FaultEvent{
			{Unit: "worker0", AfterTasks: 1},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 24
	for i := 0; i < n; i++ {
		if err := rt.Submit(&Task{Codelet: cl, Flops: 1e8}); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := runs.Load(); got != n {
		t.Fatalf("kernel ran %d times, want %d", got, n)
	}
	if rep.Tasks != n {
		t.Fatalf("report says %d tasks, want %d", rep.Tasks, n)
	}
	if rep.BlacklistedUnits() != 1 || rep.Blacklisted[0] != "worker0" {
		t.Fatalf("blacklisted = %v, want [worker0]", rep.Blacklisted)
	}
	if u, ok := rep.UnitByID("worker0"); !ok || u.Tasks != 0 {
		t.Fatalf("dead fast worker completed %d tasks", u.Tasks)
	}
}

func TestRealNaturalErrorRetried(t *testing.T) {
	var calls atomic.Int64
	cl2, err := NewCodelet("flaky", Impl{Arch: "x86", Func: func(*TaskContext) error {
		if calls.Add(1) == 1 {
			return errInjected
		}
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(Config{
		Platform: cpuPlatform(t, 2),
		Mode:     Real,
		Workers:  2,
		Retry:    RetryPolicy{MaxAttempts: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := rt.Submit(&Task{Codelet: cl2}); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.FailedAttempts != 1 || rep.RetriedTasks != 1 {
		t.Fatalf("failures=%d retried=%d", rep.FailedAttempts, rep.RetriedTasks)
	}
	if rep.BlacklistedUnits() != 0 {
		t.Fatalf("codelet errors must not blacklist workers: %v", rep.Blacklisted)
	}
}

func TestRealWatchdogConvertsHangToFailure(t *testing.T) {
	var first atomic.Bool
	first.Store(true)
	cl, err := NewCodelet("sticky", Impl{Arch: "x86", Func: func(*TaskContext) error {
		if first.CompareAndSwap(true, false) {
			time.Sleep(500 * time.Millisecond) // hangs well past the watchdog
		}
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(Config{
		Platform: cpuPlatform(t, 2),
		Mode:     Real,
		Workers:  2,
		Retry:    RetryPolicy{MaxAttempts: 4, TaskTimeout: 0.03},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := rt.Submit(&Task{Codelet: cl}); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.WatchdogTrips == 0 {
		t.Fatalf("watchdog never tripped: %+v", rep)
	}
	if rep.BlacklistedUnits() != 1 {
		t.Fatalf("hung worker not blacklisted: %v", rep.Blacklisted)
	}
}

func TestRealFailFastWithoutFaultTolerance(t *testing.T) {
	cl, err := NewCodelet("boom", Impl{Arch: "x86", Func: func(*TaskContext) error {
		return errInjected
	}})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(Config{Platform: cpuPlatform(t, 2), Mode: Real, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Submit(&Task{Codelet: cl}); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(); err == nil || !strings.Contains(err.Error(), "injected fault") {
		t.Fatalf("err = %v", err)
	}
}

func TestRunLifecycleGuards(t *testing.T) {
	rt, err := New(Config{Platform: cpuPlatform(t, 1), Mode: Real, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	cl := noopCodelet(t, "once")
	if err := rt.Submit(&Task{Codelet: cl}); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	// Run twice is rejected with a descriptive error.
	if _, err := rt.Run(); err == nil || !strings.Contains(err.Error(), "Run called twice") {
		t.Fatalf("second Run: %v", err)
	}
	// Submit after Run is rejected with a descriptive error.
	if err := rt.Submit(&Task{Codelet: cl}); err == nil || !strings.Contains(err.Error(), "Submit after Run") {
		t.Fatalf("Submit after Run: %v", err)
	}
}

func TestSubmitDuringRunRejected(t *testing.T) {
	block := make(chan struct{})
	started := make(chan struct{})
	cl, err := NewCodelet("slow", Impl{Arch: "x86", Func: func(*TaskContext) error {
		close(started)
		<-block
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(Config{Platform: cpuPlatform(t, 1), Mode: Real, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Submit(&Task{Codelet: cl}); err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		_, err := rt.Run()
		errCh <- err
	}()
	<-started
	if err := rt.Submit(&Task{Codelet: cl}); err == nil || !strings.Contains(err.Error(), "Run is in progress") {
		t.Fatalf("Submit during Run: %v", err)
	}
	close(block)
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
}

func TestBaseUnitID(t *testing.T) {
	for in, want := range map[string]string{
		"host.3": "host", "dev0": "dev0", "spe.12": "spe",
		"host": "host", "a.b.9": "a.b", "x.": "x.", "7": "7",
	} {
		if got := baseUnitID(in); got != want {
			t.Errorf("baseUnitID(%q) = %q, want %q", in, got, want)
		}
	}
}

// sleepyCodelet counts its kernel runs and sleeps briefly, so every worker
// goroutine gets to pick tasks even on GOMAXPROCS=1.
func sleepyCodelet(t *testing.T, runs *atomic.Int64) *Codelet {
	t.Helper()
	cl, err := NewCodelet("sleepy", Impl{Arch: "x86", Func: func(*TaskContext) error {
		runs.Add(1)
		time.Sleep(time.Millisecond)
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// realRun submits n independent tasks of cl to a real-mode runtime built
// from cfg on a 4-core CPU platform and runs them.
func realRun(t *testing.T, cfg Config, cl *Codelet, n int) (*Report, error) {
	t.Helper()
	cfg.Platform = cpuPlatform(t, 4)
	cfg.Mode = Real
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := rt.Submit(&Task{Codelet: cl}); err != nil {
			t.Fatal(err)
		}
	}
	return rt.Run()
}

// An injected hang on a real worker is converted into a failure by the
// watchdog: one trip, one failed attempt, the worker condemned, and the
// kernel never runs for the hung launch.
func TestRealInjectedHangTripsWatchdog(t *testing.T) {
	var runs atomic.Int64
	const n = 8
	rep, err := realRun(t, Config{
		Workers: 2,
		Retry:   RetryPolicy{TaskTimeout: 0.02},
		Faults:  &FaultPlan{Events: []FaultEvent{{Unit: "worker1", AfterTasks: 1, Hang: true}}},
	}, sleepyCodelet(t, &runs), n)
	if err != nil {
		t.Fatal(err)
	}
	if rep.WatchdogTrips != 1 || rep.FailedAttempts != 1 || rep.RetriedTasks != 1 {
		t.Fatalf("trips=%d failures=%d retried=%d", rep.WatchdogTrips, rep.FailedAttempts, rep.RetriedTasks)
	}
	if rep.BlacklistedUnits() != 1 || rep.Blacklisted[0] != "worker1" {
		t.Fatalf("blacklisted = %v", rep.Blacklisted)
	}
	if got := runs.Load(); got != n {
		t.Fatalf("kernel ran %d times, want %d", got, n)
	}
}

// A codelet that always fails exhausts MaxAttempts: the run gives up with
// the attempt count and keeps the codelet's error matchable.
func TestRealMaxAttemptsExhausted(t *testing.T) {
	errBoom := errors.New("boom")
	cl, err := NewCodelet("doomed", Impl{Arch: "x86", Func: func(*TaskContext) error { return errBoom }})
	if err != nil {
		t.Fatal(err)
	}
	_, err = realRun(t, Config{Workers: 2, Retry: RetryPolicy{MaxAttempts: 3}}, cl, 1)
	if err == nil || !strings.Contains(err.Error(), "failed 3 attempts") || !errors.Is(err, errBoom) {
		t.Fatalf("err = %v", err)
	}
}

// Losing every worker with tasks still pending aborts the run instead of
// waiting forever.
func TestRealAllWorkersBlacklisted(t *testing.T) {
	var runs atomic.Int64
	_, err := realRun(t, Config{
		Workers: 2,
		Faults: &FaultPlan{Events: []FaultEvent{
			{Unit: "worker0", AfterTasks: 1},
			{Unit: "worker1", AfterTasks: 1},
		}},
	}, sleepyCodelet(t, &runs), 4)
	if err == nil || !strings.Contains(err.Error(), "all 2 workers blacklisted") {
		t.Fatalf("err = %v", err)
	}
}

// A traced real run records one Failure and one Retry span per failed
// attempt, one Blacklist per condemned worker and one Recover per transient
// fault; task spans carry the task id and the retry its attempt number.
func TestRealFaultTraceSpans(t *testing.T) {
	var runs atomic.Int64
	tr := trace.New()
	if _, err := realRun(t, Config{
		Workers: 4,
		Trace:   tr,
		Faults: &FaultPlan{Events: []FaultEvent{
			{Unit: "worker1", AfterTasks: 1},
			{Unit: "worker2", AfterTasks: 1, RecoverAfter: 0.005},
		}},
	}, sleepyCodelet(t, &runs), 24); err != nil {
		t.Fatal(err)
	}
	for kind, want := range map[trace.Kind]int{trace.Failure: 2, trace.Retry: 2, trace.Blacklist: 2, trace.Recover: 1} {
		if got := len(tr.OfKind(kind)); got != want {
			t.Errorf("%v events = %d, want %d", kind, got, want)
		}
	}
	// A requeued task may fail again on the other faulty worker, so the
	// retry numbering is checked per task: 1, 2, ... in order.
	retries := map[int]int{}
	for _, e := range tr.OfKind(trace.Retry) {
		if e.TaskID < 0 {
			t.Fatalf("retry without task id: %+v", e)
		}
		retries[e.TaskID]++
		if e.Attempt != retries[e.TaskID] {
			t.Fatalf("retry attempt = %d, want %d: %+v", e.Attempt, retries[e.TaskID], e)
		}
	}
	for _, e := range tr.OfKind(trace.Failure) {
		if e.TaskID < 0 {
			t.Fatalf("failure without task id: %+v", e)
		}
	}
	for _, kind := range []trace.Kind{trace.Blacklist, trace.Recover} {
		for _, e := range tr.OfKind(kind) {
			if e.TaskID != trace.NoTask || (e.Unit != "worker1" && e.Unit != "worker2") {
				t.Fatalf("unit event = %+v", e)
			}
		}
	}
}
