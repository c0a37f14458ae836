package core

import (
	"math"
	"strconv"
	"testing"
	"testing/quick"
)

func TestParseUnits(t *testing.T) {
	parsers := map[string]func(value, unit string) (float64, error){
		"size": func(v, u string) (float64, error) {
			n, err := ParseSize(v, u)
			return float64(n), err
		},
		"frequency": ParseFrequency,
		"bandwidth": ParseBandwidth,
		"duration":  ParseDuration,
	}
	tests := []struct {
		kind, value, unit string
		expected          float64
		wantErr           bool
	}{
		// Sizes: binary multiples, IEC aliases, case-insensitive units.
		{"size", "1", "", 1, false},
		{"size", "1", "B", 1, false},
		{"size", "1", "kB", 1 << 10, false},
		{"size", "1572864", "kB", 1572864 << 10, false},
		{"size", "2", "MB", 2 << 20, false},
		{"size", "3", "GB", 3 << 30, false},
		{"size", "4", "TB", 4 << 40, false},
		{"size", "4", "KiB", 4 << 10, false},
		{"size", " 7 ", "gib", 7 << 30, false},
		{"size", "0", "MB", 0, false},
		{"size", "-1", "kB", 0, true},
		{"size", "1.5", "kB", 0, true},
		{"size", "x", "kB", 0, true},
		{"size", "1", "parsecs", 0, true},
		{"size", "16777216", "TB", 0, true}, // 2^24 TB overflows 64 bits
		// Frequencies: decimal multiples, strictly positive.
		{"frequency", "2660", "MHz", 2.66e9, false},
		{"frequency", "2.66", "GHz", 2.66e9, false},
		{"frequency", "50", "", 50, false},
		{"frequency", "1", "eV", 0, true},
		{"frequency", "0", "GHz", 0, true},
		{"frequency", "-2", "GHz", 0, true},
		{"frequency", "NaN", "MHz", 0, true},
		// Bandwidths: binary multiples, strictly positive and finite.
		{"bandwidth", "5", "GB/s", 5 << 30, false},
		{"bandwidth", "1024", "kB/s", 1 << 20, false},
		{"bandwidth", "2", "mb/s", 2 << 20, false},
		{"bandwidth", "5", "", 5, false},
		{"bandwidth", "x", "GB/s", 0, true},
		{"bandwidth", "5", "furlongs", 0, true},
		{"bandwidth", "NaN", "GB/s", 0, true},
		{"bandwidth", "-5", "GB/s", 0, true},
		{"bandwidth", "0", "GB/s", 0, true},
		{"bandwidth", "Inf", "GB/s", 0, true},
		{"bandwidth", "1e308", "GB/s", 0, true}, // finite value, infinite rate
		{"bandwidth", "1e-320", "", 0, true},    // rate too small to invert
		// Durations: decimal multiples, zero allowed.
		{"duration", "10", "us", 10e-6, false},
		{"duration", "10", "µs", 10e-6, false},
		{"duration", "5", "ms", 5e-3, false},
		{"duration", "7", "ns", 7e-9, false},
		{"duration", "2", "", 2, false},
		{"duration", "0", "s", 0, false},
		{"duration", "10", "fortnights", 0, true},
		{"duration", "Inf", "ms", 0, true},
		{"duration", "-1", "ms", 0, true},
		{"duration", "nan", "s", 0, true},
	}
	for _, tt := range tests {
		t.Run(tt.kind+"/"+tt.value+tt.unit, func(t *testing.T) {
			got, err := parsers[tt.kind](tt.value, tt.unit)
			if tt.wantErr {
				if err == nil {
					t.Errorf("parse %s(%q, %q) = %g; want error", tt.kind, tt.value, tt.unit, got)
				}
				return
			}
			if err != nil {
				t.Fatalf("parse %s(%q, %q) unexpected error: %v", tt.kind, tt.value, tt.unit, err)
			}
			if math.Abs(got-tt.expected) > 1e-12*tt.expected {
				t.Errorf("parse %s(%q, %q) = %g; want %g", tt.kind, tt.value, tt.unit, got, tt.expected)
			}
		})
	}
}

// Property-based: ParseSize is monotone in the unit ladder.
func TestQuickSizeUnitsMonotone(t *testing.T) {
	f := func(n uint16) bool {
		v := strconv.Itoa(int(n%1000) + 1)
		s := func(u string) uint64 {
			b, err := ParseSize(v, u)
			if err != nil {
				t.Fatalf("ParseSize: %v", err)
			}
			return b
		}
		return s("B") < s("kB") && s("kB") < s("MB") && s("MB") < s("GB") && s("GB") < s("TB")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// FuzzParseUnits feeds arbitrary value/unit pairs to every unit parser.
// The contract under fuzz: never panic, and every accepted value is in
// range — finite and non-negative, rates strictly positive with a finite
// inverse (consumers turn them into seconds per byte or per cycle), and a
// size never below its unit-less reading. Seed corpus lives in
// testdata/fuzz/FuzzParseUnits.
func FuzzParseUnits(f *testing.F) {
	f.Fuzz(func(t *testing.T, value, unit string) {
		if n, err := ParseSize(value, unit); err == nil {
			if base, err := ParseSize(value, ""); err != nil || n < base {
				t.Fatalf("ParseSize(%q, %q) = %d but unit-less reading = %d, %v", value, unit, n, base, err)
			}
		}
		for name, parse := range map[string]func(string, string) (float64, error){
			"frequency": ParseFrequency, "bandwidth": ParseBandwidth, "duration": ParseDuration,
		} {
			v, err := parse(value, unit)
			if err != nil {
				continue
			}
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				t.Fatalf("%s(%q, %q) accepted out-of-range %g", name, value, unit, v)
			}
			if name != "duration" && math.IsInf(1/v, 0) {
				t.Fatalf("%s(%q, %q) accepted non-invertible rate %g", name, value, unit, v)
			}
		}
	})
}
