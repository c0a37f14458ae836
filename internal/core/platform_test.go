package core

import (
	"strings"
	"testing"
)

// paperPlatform builds the platform of the paper's Listing 1: one x86 Master
// controlling one gpu Worker over an rDMA interconnect.
func paperPlatform(t testing.TB) *Platform {
	t.Helper()
	pl, err := NewBuilder("gpgpu-node").
		Master("0", Arch("x86")).
		Worker("1", Arch("gpu")).
		Link(ICTypeRDMA, "0", "1").
		Build()
	if err != nil {
		t.Fatalf("build paper platform: %v", err)
	}
	return pl
}

// xeon2gpu builds the evaluation platform of Section IV-D: dual-socket
// quad-core Xeon X5550 with two Nvidia GPUs.
func xeon2gpu(t testing.TB) *Platform {
	t.Helper()
	pl, err := NewBuilder("xeon-2gpu").
		Master("cpu", Arch("x86"), Qty(8), WithProp(PropDeviceName, "Xeon X5550"), InGroups("cpuset")).
		Worker("gpu0", Arch("gpu"), WithProp(PropDeviceName, "GeForce GTX 480"), InGroups("gpuset")).
		Worker("gpu1", Arch("gpu"), WithProp(PropDeviceName, "GeForce GTX 285"), InGroups("gpuset")).
		Link(ICTypePCIe, "cpu", "gpu0", Bandwidth(5.0), Latency(10)).
		Link(ICTypePCIe, "cpu", "gpu1", Bandwidth(5.0), Latency(10)).
		Build()
	if err != nil {
		t.Fatalf("build xeon2gpu: %v", err)
	}
	return pl
}

func TestWalkOrderAndFind(t *testing.T) {
	pl := xeon2gpu(t)
	var order []string
	pl.Walk(func(n, _ *PU) bool {
		order = append(order, n.ID)
		return true
	})
	want := []string{"cpu", "gpu0", "gpu1"}
	if len(order) != len(want) {
		t.Fatalf("walk visited %v; want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("walk visited %v; want %v", order, want)
		}
	}
	if pl.FindPU("gpu1") == nil {
		t.Fatal("FindPU(gpu1) = nil")
	}
	if pl.FindPU("nope") != nil {
		t.Fatal("FindPU(nope) should be nil")
	}
}

func TestWalkEarlyStop(t *testing.T) {
	pl := xeon2gpu(t)
	n := 0
	pl.Walk(func(_, _ *PU) bool {
		n++
		return false
	})
	if n != 1 {
		t.Fatalf("walk visited %d nodes after stop; want 1", n)
	}
}

func TestControllerRelationship(t *testing.T) {
	pl := paperPlatform(t)
	c := pl.Controller("1")
	if c == nil || c.ID != "0" {
		t.Fatalf("Controller(1) = %v; want master 0", c)
	}
	if pl.Controller("0") != nil {
		t.Fatal("Controller of a Master must be nil")
	}
	if pl.Controller("missing") != nil {
		t.Fatal("Controller of unknown id must be nil")
	}
}

func TestClassAndGroupQueries(t *testing.T) {
	pl := xeon2gpu(t)
	if got := len(pl.Workers()); got != 2 {
		t.Fatalf("Workers() = %d; want 2", got)
	}
	if got := len(pl.PUsByClass(Master)); got != 1 {
		t.Fatalf("Masters = %d; want 1", got)
	}
	grp := pl.Group("gpuset")
	if len(grp) != 2 || grp[0].ID != "gpu0" || grp[1].ID != "gpu1" {
		t.Fatalf("Group(gpuset) = %v", grp)
	}
	groups := pl.Groups()
	if len(groups) != 2 || groups[0] != "cpuset" || groups[1] != "gpuset" {
		t.Fatalf("Groups() = %v", groups)
	}
	if len(pl.Group("absent")) != 0 {
		t.Fatal("Group(absent) should be empty")
	}
}

func TestLinkBetweenAndUnits(t *testing.T) {
	pl := xeon2gpu(t)
	ic, ok := pl.LinkBetween("cpu", "gpu0")
	if !ok || ic.Type != ICTypePCIe {
		t.Fatalf("LinkBetween(cpu,gpu0) = %v, %v", ic, ok)
	}
	// Duplex links match in both directions.
	if _, ok := pl.LinkBetween("gpu0", "cpu"); !ok {
		t.Fatal("duplex link should match reversed")
	}
	if _, ok := pl.LinkBetween("gpu0", "gpu1"); ok {
		t.Fatal("no declared link gpu0-gpu1")
	}
	if n := pl.TotalUnits(); n != 10 {
		t.Fatalf("TotalUnits = %d; want 10 (8 cores + 2 gpus)", n)
	}
	lat, perByte := ic.Cost()
	if perByte != 1/(5.0*(1<<30)) || lat < 9.99e-6 || lat > 10.01e-6 {
		t.Fatalf("Cost() = %g s, %g s/B", lat, perByte)
	}
}

func TestRoute(t *testing.T) {
	// cpu -QPI- cpu2, cpu -PCIe- gpu0: route gpu0 -> cpu2 must traverse both.
	pl, err := NewBuilder("routes").
		Master("cpu", Arch("x86")).
		Worker("gpu0", Arch("gpu")).
		Link(ICTypePCIe, "cpu", "gpu0").
		Master("cpu2", Arch("x86")).
		Link(ICTypeQPI, "cpu2", "cpu").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	path, err := pl.Route("gpu0", "cpu2")
	if err != nil {
		t.Fatalf("Route: %v", err)
	}
	if len(path) != 2 || path[0].Type != ICTypePCIe || path[1].Type != ICTypeQPI {
		t.Fatalf("Route = %v", path)
	}
	// Links without properties each price at the default pair.
	if lat, perByte, err := pl.RouteCost("gpu0", "cpu2"); err != nil || lat != 2*10e-6 || perByte != 2.0/(5<<30) {
		t.Fatalf("RouteCost = %g, %g, %v", lat, perByte, err)
	}
	if lat, perByte, err := pl.RouteCost("cpu", "cpu"); err != nil || lat != 0 || perByte != 0 {
		t.Fatalf("self RouteCost = %g, %g, %v", lat, perByte, err)
	}
	if p, err := pl.Route("cpu", "cpu"); err != nil || p != nil {
		t.Fatalf("self route = %v, %v; want nil, nil", p, err)
	}
	if _, err := pl.Route("cpu", "nosuch"); err == nil {
		t.Fatal("route to unknown PU must fail")
	}
}

func TestRouteNoPath(t *testing.T) {
	pl, err := NewBuilder("split").
		Master("a", Arch("x86")).
		Master("b", Arch("x86")).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pl.Route("a", "b"); err == nil {
		t.Fatal("route between unconnected PUs must fail")
	}
	if _, _, err := pl.RouteCost("a", "b"); err == nil {
		t.Fatal("RouteCost between unconnected PUs must fail")
	}
}

func TestRouteSimplexDirectionality(t *testing.T) {
	pl, err := NewBuilder("oneway").
		Master("a", Arch("x86")).
		Worker("w", Arch("gpu")).
		Link(ICTypeRDMA, "a", "w", Simplex()).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pl.Route("a", "w"); err != nil {
		t.Fatalf("forward route should exist: %v", err)
	}
	if _, err := pl.Route("w", "a"); err == nil {
		t.Fatal("reverse route over simplex link must fail")
	}
}

func TestExpandQuantities(t *testing.T) {
	pl := xeon2gpu(t)
	ex := pl.Expand()
	if err := ex.Validate(); err != nil {
		t.Fatalf("expanded platform invalid: %v", err)
	}
	if n := len(ex.Masters); n != 8 {
		t.Fatalf("expanded masters = %d; want 8", n)
	}
	if ex.FindPU("cpu.0") == nil || ex.FindPU("cpu.7") == nil {
		t.Fatal("expanded ids cpu.0..cpu.7 missing")
	}
	// Each expanded master instance carries the gpu workers (control view
	// duplicated per instance): total units unchanged in meaning, ids unique.
	if err := ex.Validate(); err != nil {
		t.Fatal(err)
	}
	// Interconnects must have been re-homed to instance ids.
	found := false
	for _, ic := range ex.Interconnects() {
		if strings.HasPrefix(ic.From, "cpu.") {
			found = true
			if ex.FindPU(ic.From) == nil || ex.FindPU(ic.To) == nil {
				t.Fatalf("dangling expanded interconnect %v", ic)
			}
		}
	}
	if !found {
		t.Fatal("no expanded interconnect references instance ids")
	}
}

func TestExpandQuantityOneIsStable(t *testing.T) {
	pl := paperPlatform(t)
	ex := pl.Expand()
	if ex.FindPU("0") == nil || ex.FindPU("1") == nil {
		t.Fatal("quantity-1 units must keep their ids on Expand")
	}
	if err := ex.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCloneIndependence(t *testing.T) {
	pl := xeon2gpu(t)
	cp := pl.Clone()
	cp.FindPU("gpu0").Descriptor.SetFixed(PropArchitecture, "changed")
	if pl.FindPU("gpu0").Architecture() != "gpu" {
		t.Fatal("Clone shares descriptor storage with original")
	}
	cp.Masters[0].Children = nil
	if len(pl.Masters[0].Children) != 2 {
		t.Fatal("Clone shares children slice with original")
	}
}

func TestSummaryMentionsEveryPU(t *testing.T) {
	pl := xeon2gpu(t)
	s := pl.Summary()
	for _, id := range []string{"cpu", "gpu0", "gpu1", "PCIe"} {
		if !strings.Contains(s, id) {
			t.Errorf("Summary missing %q:\n%s", id, s)
		}
	}
}

func TestMemoryRegionSize(t *testing.T) {
	pl, err := NewBuilder("mem").
		Master("0", Arch("x86"), WithMemory("ram", 1572864)).
		Worker("1", Arch("gpu")).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	mr := pl.FindPU("0").Memory[0]
	sz, ok := mr.SizeBytes()
	if !ok || sz != 1572864*1024 {
		t.Fatalf("SizeBytes = %d, %v", sz, ok)
	}
	var none MemoryRegion
	if _, ok := none.SizeBytes(); ok {
		t.Fatal("SizeBytes without property should report !ok")
	}
}
