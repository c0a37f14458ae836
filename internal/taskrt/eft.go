package taskrt

// Placement-decision sources, in falling confidence order. They label the
// placement-decision metrics and the trace.Place events of every engine
// that places through ChooseEFT.
const (
	PlaceModel    = "model"    // perfmodel estimate for the candidate's arch
	PlaceFallback = "fallback" // candidate's observed mean task time
	PlaceCold     = "cold"     // pool-wide observed mean (zero without history)
)

// Bid is what a placement site knows about one candidate (a worker, a
// cluster node) for one task. Times are nanoseconds.
type Bid struct {
	Backlog  float64 // predicted work already queued on or running at the candidate
	Transfer float64 // modelled time to move the task's operands to the candidate
	Penalty  float64 // multiplier on the execution estimate; 1 trusts it as is
	Model    float64 // perfmodel estimate, valid when ModelOK
	ModelOK  bool
	Mean     float64 // candidate's observed mean task time over Samples completions
	Samples  int64
}

// estimate predicts the task's execution time on the candidate and names
// the source: the perfmodel, else the candidate's observed mean, else the
// pool-wide observed mean (0 while nothing has completed). A cold candidate
// thus bids the pool's typical task rather than zero, so it accumulates
// backlog like everyone else instead of attracting every placement.
func (b *Bid) estimate(poolMean float64) (float64, string) {
	switch {
	case b.ModelOK:
		return b.Model, PlaceModel
	case b.Samples > 0:
		return b.Mean, PlaceFallback
	}
	return poolMean, PlaceCold
}

// Choice is one earliest-finish-time decision.
type Choice struct {
	Index    int     // winning candidate
	Estimate float64 // its execution estimate, before the penalty
	Exec     float64 // Estimate × Penalty: the execution time charged
	Transfer float64
	Source   string // PlaceModel, PlaceFallback or PlaceCold
}

// ChooseEFT is the placement core shared by the real engine's dmda
// dispatcher and the cluster master: among n candidates it picks the one
// with the earliest finish time, Backlog + Estimate × Penalty + Transfer.
// bid describes candidate i, or reports false to exclude it (offline, out
// of credit, cannot run the codelet). The scan starts at start (in [0, n))
// and wraps; callers rotate start across decisions so equal scores — a cold
// pool above all — spread over the candidates instead of piling onto the
// first. On an equal score a task with priority > 0 takes the candidate that
// executes it faster: the critical chain's next dependency releases sooner
// even though this task's finish instant is nominally the same. ok is false
// when every candidate was excluded.
func ChooseEFT(n, start, priority int, poolMean float64, bid func(i int) (Bid, bool)) (best Choice, ok bool) {
	var bestScore float64
	for k := 0; k < n; k++ {
		i := start + k
		if i >= n {
			i -= n
		}
		b, in := bid(i)
		if !in {
			continue
		}
		est, src := b.estimate(poolMean)
		exec := est * b.Penalty
		score := b.Backlog + exec + b.Transfer
		if !ok || score < bestScore || (priority > 0 && score == bestScore && exec < best.Exec) {
			best = Choice{Index: i, Estimate: est, Exec: exec, Transfer: b.Transfer, Source: src}
			bestScore, ok = score, true
		}
	}
	return best, ok
}
