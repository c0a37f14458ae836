package main

import (
	"math"
	"sort"
)

// quantile returns the nearest-rank q-quantile (0 < q <= 1) of xs.
// It sorts a copy; +Inf entries (failed requests) sort last.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailMinBeyond is how many samples must lie beyond a reported tail.
const tailMinBeyond = 10

// tail applies the tail-percentile rule: the highest nearest-rank
// percentile that still has at least tailMinBeyond samples strictly above
// it. It returns the value, that percentile (0–100) and the sample count;
// ok is false when there are too few samples for any percentile to qualify.
func tail(xs []float64) (value, pct float64, n int, ok bool) {
	n = len(xs)
	s := sortedCopy(xs)
	for i := n - 1 - tailMinBeyond; i >= 0; i-- {
		beyond := n - sort.Search(n, func(j int) bool { return s[j] > s[i] })
		if beyond >= tailMinBeyond {
			return s[i], 100 * float64(i+1) / float64(n), n, true
		}
	}
	return 0, 0, n, false
}

// rung is one open-loop phase at a fixed offered rate.
type rung struct {
	Rate float64   // offered requests per second
	Lat  []float64 // per-request latency from due time, ms (+Inf = failed)
}

// score is what the latency limit applies to: the rung's median latency.
// It stays low while the system keeps up and climbs once a backlog grows;
// the tail percentiles on a shared host mostly follow stolen CPU time.
func (r rung) score() float64 {
	if len(r.Lat) == 0 {
		return math.Inf(1)
	}
	return median(r.Lat)
}

func (r rung) passes(limitMs float64) bool { return r.score() <= limitMs }

// ladderMax returns the highest sustainable rate of an ascending ladder:
// the last rung that, with every rung below it, meets the limit, refined by
// interpolating log(score) linearly in rate towards the first failing rung
// (when that one's score is finite). 0 means not even the first rung met it.
func ladderMax(rungs []rung, limitMs float64) float64 {
	for i, r := range rungs {
		if r.passes(limitMs) {
			continue
		}
		if i == 0 {
			return 0
		}
		lo := rungs[i-1]
		s1, s2 := lo.score(), r.score()
		if math.IsInf(s2, 1) || s1 <= 0 {
			return lo.Rate
		}
		f := (math.Log(limitMs) - math.Log(s1)) / (math.Log(s2) - math.Log(s1))
		return lo.Rate + f*(r.Rate-lo.Rate)
	}
	if len(rungs) == 0 {
		return 0
	}
	return rungs[len(rungs)-1].Rate
}

// shipRatio is the bytes a distributed pass moved over the wire divided by
// the size of its operands A, B and C (n×n float64 each): the floor any
// master–worker schedule that ships each operand once must reach.
func shipRatio(reqBytes, respBytes int64, n int) float64 {
	operands := 3 * float64(n) * float64(n) * 8
	return float64(reqBytes+respBytes) / operands
}

// criticalPath returns the length of the longest dependency chain when
// task i takes dur[i] and must follow every task in preds[i]. Tasks are
// indexed in a topological order (every predecessor index is smaller).
func criticalPath(dur []float64, preds [][]int) (length float64, chain []int) {
	finish := make([]float64, len(dur))
	via := make([]int, len(dur))
	end := -1
	for i := range dur {
		via[i] = -1
		start := 0.0
		for _, p := range preds[i] {
			if finish[p] > start {
				start, via[i] = finish[p], p
			}
		}
		finish[i] = start + dur[i]
		if end < 0 || finish[i] > finish[end] {
			end = i
		}
	}
	for i := end; i >= 0; i = via[i] {
		chain = append([]int{i}, chain...)
	}
	if end >= 0 {
		length = finish[end]
	}
	return length, chain
}
