package taskrt

import "testing"

func TestChooseEFT(t *testing.T) {
	model := func(backlog, est float64) Bid { return Bid{Backlog: backlog, Penalty: 1, Model: est, ModelOK: true} }
	tests := []struct {
		name      string
		bids      []Bid
		excluded  []bool
		start     int
		priority  int
		poolMean  float64
		wantIndex int
		wantExec  float64
		wantSrc   string
	}{
		{"earliest finish wins", []Bid{model(4, 5), model(0, 12)}, nil, 0, 0, 0, 0, 5, PlaceModel},
		{"transfer counts", []Bid{{Backlog: 0, Penalty: 1, Model: 5, ModelOK: true, Transfer: 20}, model(10, 12)}, nil, 0, 0, 0, 1, 12, PlaceModel},
		{"penalty scales the estimate", []Bid{{Penalty: 3, Model: 5, ModelOK: true}, model(0, 12)}, nil, 0, 0, 0, 1, 12, PlaceModel},
		{"observed mean without a model", []Bid{{Penalty: 1, Mean: 7, Samples: 2}, {Backlog: 8, Penalty: 1}}, nil, 0, 0, 4, 0, 7, PlaceFallback},
		{"cold bids the pool mean", []Bid{{Backlog: 5, Penalty: 1, Mean: 1, Samples: 1}, {Penalty: 1}}, nil, 0, 0, 4, 1, 4, PlaceCold},
		{"excluded candidates skipped", []Bid{model(0, 1), model(50, 1)}, []bool{true, false}, 0, 0, 0, 1, 1, PlaceModel},
		{"tie goes to the scan start", []Bid{model(0, 5), model(0, 5), model(0, 5)}, nil, 2, 0, 0, 2, 5, PlaceModel},
		{"tie without priority keeps scan order", []Bid{model(2, 4), model(0, 6)}, nil, 0, 0, 0, 0, 4, PlaceModel},
		{"prioritised tie takes the faster candidate", []Bid{model(0, 6), model(2, 4)}, nil, 0, 1, 0, 1, 4, PlaceModel},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, ok := ChooseEFT(len(tt.bids), tt.start, tt.priority, tt.poolMean, func(i int) (Bid, bool) {
				return tt.bids[i], tt.excluded == nil || !tt.excluded[i]
			})
			if !ok || got.Index != tt.wantIndex || got.Exec != tt.wantExec || got.Source != tt.wantSrc {
				t.Errorf("ChooseEFT = %+v, %v; want index %d exec %g source %s", got, ok, tt.wantIndex, tt.wantExec, tt.wantSrc)
			}
		})
	}
	if _, ok := ChooseEFT(2, 0, 0, 0, func(int) (Bid, bool) { return Bid{}, false }); ok {
		t.Error("ChooseEFT with every candidate excluded reported a choice")
	}
}

func TestBackoff(t *testing.T) {
	for n, want := range []float64{1, 1, 2, 4, 5, 5} {
		if got := Backoff(1, 5, n); got != want {
			t.Errorf("Backoff(1, 5, %d) = %g, want %g", n, got, want)
		}
	}
}
