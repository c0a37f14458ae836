package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
)

func TestFig5Small(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-exp", "fig5", "-n", "1024", "-tile", "256"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"Figure 5", "single", "starpu", "starpu+2gpu"} {
		if !strings.Contains(s, want) {
			t.Errorf("missing %q:\n%s", want, s)
		}
	}
}

func TestOtherExperimentsSmall(t *testing.T) {
	for _, exp := range []string{"sched", "tiles", "bw", "crossover"} {
		var out bytes.Buffer
		if err := run([]string{"-exp", exp, "-n", "1024", "-tile", "256"}, &out); err != nil {
			t.Fatalf("%s: %v", exp, err)
		}
		if !strings.Contains(out.String(), "==") {
			t.Fatalf("%s produced no table", exp)
		}
	}
}

func TestRealCPUExperiment(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-exp", "realcpu", "-realn", "128"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Ext-E") {
		t.Fatalf("output = %q", out.String())
	}
}

func TestFaultsExperiment(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-exp", "faults", "-n", "1024", "-tile", "256"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"Ext-H", "gpu-loss", "cpu-only", "real-verify", "blacklisted [dev0 dev1]"} {
		if !strings.Contains(s, want) {
			t.Errorf("missing %q:\n%s", want, s)
		}
	}
}

// The cluster experiment honours -n/-tile like the other harnesses.
func TestClusterExperimentSize(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-exp", "cluster", "-n", "256", "-tile", "128"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "n=256 tile=128") {
		t.Fatalf("cluster table ignores -n/-tile:\n%s", out.String())
	}
}

// TestGemmBenchJSON smoke-tests the Ext-I pipeline end to end: the table
// renders, the -out artefact is written, and the JSON round-trips into the
// struct the harness serialises with both schedulers present.
func TestGemmBenchJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_gemm.json")
	var out bytes.Buffer
	if err := run([]string{"-exp", "gemm", "-gemmn", "128", "-workers", "2", "-out", path}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Ext-I", "kernel/packed", "dispatch/ws", "dispatch/dmda"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("missing %q:\n%s", want, out.String())
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var bench experiments.GemmBenchData
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatalf("BENCH_gemm.json does not parse: %v", err)
	}
	if bench.Experiment != "gemm-bench" || len(bench.Kernels) == 0 {
		t.Fatalf("unexpected bench contents: %+v", bench)
	}
	scheds := map[string]bool{}
	for _, d := range bench.Dispatch {
		scheds[d.Scheduler] = true
		if d.Seconds <= 0 || d.Tasks <= 0 {
			t.Errorf("dispatch point %+v has non-positive measurements", d)
		}
	}
	if !scheds["ws"] || !scheds["dmda"] {
		t.Errorf("dispatch A/B incomplete, got %v", scheds)
	}
	for _, k := range bench.Kernels {
		if k.GFlops <= 0 {
			t.Errorf("kernel point %+v has non-positive GFLOP/s", k)
		}
	}
}

func TestUnknownExperiment(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-exp", "warp"}, &out); err == nil {
		t.Fatal("unknown experiment must fail")
	}
}
