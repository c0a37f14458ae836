package core

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Unit tables for quantitative property values, keyed by lower-cased unit
// (an empty unit means the base unit). These parsers are the toolchain's
// only unit conversion: the schema validator, MemoryRegion.SizeBytes and
// Interconnect.Cost all call them. Size and bandwidth multiples are binary
// (kB = 1024 B, GB/s = 2^30 B/s), which every committed PDL document and
// calibration assumes; frequency and time multiples are decimal.
var (
	sizeShifts     = map[string]uint{"": 0, "b": 0, "kb": 10, "kib": 10, "mb": 20, "mib": 20, "gb": 30, "gib": 30, "tb": 40, "tib": 40}
	frequencyUnits = map[string]float64{"": 1, "hz": 1, "khz": 1e3, "mhz": 1e6, "ghz": 1e9}
	bandwidthUnits = map[string]float64{"": 1, "b/s": 1, "kb/s": 1 << 10, "mb/s": 1 << 20, "gb/s": 1 << 30}
	durationUnits  = map[string]float64{"": 1, "s": 1, "ms": 1e-3, "us": 1e-6, "µs": 1e-6, "ns": 1e-9}
)

// ParseSize converts a value/unit pair into bytes.
func ParseSize(value, unit string) (uint64, error) {
	shift, ok := sizeShifts[strings.ToLower(unit)]
	if !ok {
		return 0, fmt.Errorf("core: unknown size unit %q", unit)
	}
	n, err := strconv.ParseUint(strings.TrimSpace(value), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("core: bad size value %q", value)
	}
	if n > math.MaxUint64>>shift {
		return 0, fmt.Errorf("core: size %s %s overflows 64 bits", value, unit)
	}
	return n << shift, nil
}

// ParseFrequency converts a value/unit pair into Hz, which must be positive.
func ParseFrequency(value, unit string) (float64, error) {
	return parseRate("frequency", value, unit, frequencyUnits)
}

// ParseBandwidth converts a value/unit pair into bytes per second, which
// must be positive.
func ParseBandwidth(value, unit string) (float64, error) {
	return parseRate("bandwidth", value, unit, bandwidthUnits)
}

// ParseDuration converts a value/unit pair into seconds, which must be
// finite and non-negative.
func ParseDuration(value, unit string) (float64, error) {
	return parseQuantity("duration", value, unit, durationUnits)
}

// parseRate is parseQuantity for rates, which consumers invert (seconds per
// byte, per cycle): zero and values too small to invert are rejected too.
func parseRate(kind, value, unit string, units map[string]float64) (float64, error) {
	f, err := parseQuantity(kind, value, unit, units)
	if err == nil && math.IsInf(1/f, 0) {
		return 0, fmt.Errorf("core: %s %q %s must be positive", kind, value, unit)
	}
	return f, err
}

// parseQuantity scales a decimal value by its unit's multiplier, rejecting
// unknown units, NaN, infinities and negative values.
func parseQuantity(kind, value, unit string, units map[string]float64) (float64, error) {
	mult, ok := units[strings.ToLower(unit)]
	if !ok {
		return 0, fmt.Errorf("core: unknown %s unit %q", kind, unit)
	}
	f, err := strconv.ParseFloat(strings.TrimSpace(value), 64)
	if err != nil {
		return 0, fmt.Errorf("core: bad %s value %q", kind, value)
	}
	f *= mult
	if math.IsNaN(f) || math.IsInf(f, 0) || f < 0 {
		return 0, fmt.Errorf("core: %s %q %s out of range", kind, value, unit)
	}
	return f, nil
}
