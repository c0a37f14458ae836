package main

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// outcome is one open-loop request: when it was due, sent and done, as
// offsets from the start of its phase.
type outcome struct {
	Due, Sent, Done time.Duration
	Err             error
}

// poissonSchedule returns the due offsets of seeded Poisson arrivals at rate
// requests/second over d.
func poissonSchedule(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	var due []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		if t >= d.Seconds() {
			return due
		}
		due = append(due, time.Duration(t*float64(time.Second)))
	}
}

// openLoop sends request i at due[i] regardless of how earlier requests
// fared, with at most senders requests in flight. A request that finds
// every sender busy goes out late; its latency still counts from due[i], so
// a stall shows in every request queued behind it.
func openLoop(due []time.Duration, senders int, do func(i int) error) []outcome {
	out := make([]outcome, len(due))
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) {
					return
				}
				if wait := due[i] - time.Since(start); wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Since(start)
				err := do(i)
				out[i] = outcome{Due: due[i], Sent: sent, Done: time.Since(start), Err: err}
			}
		}()
	}
	wg.Wait()
	return out
}

// rungOf summarises one open-loop phase at rate: each request's latency
// from its due time in ms, +Inf for a failed request so it misses any limit.
func rungOf(rate float64, out []outcome) rung {
	r := rung{Rate: rate}
	for _, o := range out {
		lat := ms(o.Done - o.Due)
		if o.Err != nil {
			lat = math.Inf(1)
		}
		r.Lat = append(r.Lat, lat)
	}
	return r
}

// lateness returns how late the generator sent each request, in ms.
func lateness(out []outcome) []float64 {
	l := make([]float64, len(out))
	for i, o := range out {
		l[i] = ms(o.Sent - o.Due)
	}
	return l
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
