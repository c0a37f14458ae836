package core

import (
	"math"
	"testing"
)

func TestClassString(t *testing.T) {
	if Master.String() != "Master" || Hybrid.String() != "Hybrid" || Worker.String() != "Worker" {
		t.Fatal("Class.String wrong")
	}
	if got := Class(99).String(); got != "Class(99)" {
		t.Fatalf("unknown class String = %q", got)
	}
}

func TestParseClass(t *testing.T) {
	for s, want := range map[string]Class{"Master": Master, "Hybrid": Hybrid, "Worker": Worker} {
		got, err := ParseClass(s)
		if err != nil || got != want {
			t.Errorf("ParseClass(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseClass("Supervisor"); err == nil {
		t.Fatal("unknown class must fail")
	}
}

func TestPUHelpers(t *testing.T) {
	p := &PU{ID: "m", Class: Master}
	c := &PU{ID: "w", Class: Worker}
	p.AddChild(c)
	if len(p.Children) != 1 {
		t.Fatal("AddChild failed")
	}
	if p.Find("w") != c {
		t.Fatal("Find failed")
	}
	if p.Find("nope") != nil {
		t.Fatal("Find false positive")
	}
	if p.EffectiveQuantity() != 1 {
		t.Fatal("zero quantity should normalise to 1")
	}
	p.Quantity = 4
	if p.EffectiveQuantity() != 4 {
		t.Fatal("EffectiveQuantity wrong")
	}
	// String renders "?" for unknown arch.
	if got := c.String(); got != "Worker(id=w arch=? q=1)" {
		t.Fatalf("String = %q", got)
	}
	// Clone of nil is nil.
	var nilPU *PU
	if nilPU.Clone() != nil {
		t.Fatal("Clone(nil) should be nil")
	}
}

func TestInterconnectConnectsDirectionality(t *testing.T) {
	ic := Interconnect{From: "a", To: "b"}
	if !ic.Connects("a", "b") || ic.Connects("b", "a") {
		t.Fatal("simplex Connects wrong")
	}
	ic.Duplex = true
	if !ic.Connects("b", "a") {
		t.Fatal("duplex Connects wrong")
	}
	if ic.Connects("a", "c") {
		t.Fatal("Connects false positive")
	}
}

func TestBandwidthLatencyUnits(t *testing.T) {
	mk := func(props ...Property) *Interconnect {
		var ic Interconnect
		for _, p := range props {
			ic.Descriptor.Set(p)
		}
		return &ic
	}
	bw := func(value, unit string) Property { return Property{Name: PropBandwidth, Value: value, Unit: unit} }
	lat := func(value, unit string) Property { return Property{Name: PropLatency, Value: value, Unit: unit} }
	cases := []struct {
		name         string
		ic           *Interconnect
		lat, perByte float64
	}{
		{"MB/s", mk(bw("2", "MB/s"), lat("5", "ms")), 5e-3, 1.0 / (2 << 20)},
		{"kB/s", mk(bw("1024", "kB/s"), lat("2", "")), 2, 1.0 / (1 << 20)},
		{"B/s", mk(bw("5", ""), lat("7", "ns")), 7e-9, 1.0 / 5},
		// Missing or invalid properties take the default pair.
		{"no properties", mk(), 10e-6, 1.0 / (5 << 30)},
		{"bad unit", mk(bw("5", "furlongs"), lat("1", "fortnights")), 10e-6, 1.0 / (5 << 30)},
		{"bad value", mk(bw("x", "GB/s"), lat("-1", "ms")), 10e-6, 1.0 / (5 << 30)},
		{"zero bandwidth", mk(bw("0", "GB/s")), 10e-6, 1.0 / (5 << 30)},
	}
	for _, c := range cases {
		l, b := c.ic.Cost()
		if math.Abs(l-c.lat) > 1e-12*c.lat || b != c.perByte {
			t.Errorf("%s: Cost() = %g, %g; want %g, %g", c.name, l, b, c.lat, c.perByte)
		}
	}
}

func TestMemoryRegionSizeUnits(t *testing.T) {
	mk := func(value, unit string) MemoryRegion {
		var mr MemoryRegion
		mr.Descriptor.Set(Property{Name: PropMemSize, Value: value, Unit: unit, Fixed: true})
		return mr
	}
	cases := []struct {
		value, unit string
		want        uint64
		ok          bool
	}{
		{"10", "", 10, true},
		{"10", "B", 10, true},
		{"10", "MB", 10 << 20, true},
		{"10", "GB", 10 << 30, true},
		{"4", "KiB", 4 << 10, true},
		{"4", "TB", 4 << 40, true},
		{"-1", "kB", 0, false},
		{"10", "bits", 0, false},
	}
	for _, c := range cases {
		mr := mk(c.value, c.unit)
		got, ok := mr.SizeBytes()
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("SizeBytes(%q %q) = %d, %v", c.value, c.unit, got, ok)
		}
	}
}
