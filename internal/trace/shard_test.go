package trace

import (
	"sync"
	"testing"
)

func TestShardFlushPreservesOrder(t *testing.T) {
	tr := New()
	sh := tr.NewShard(8)
	for i := 0; i < 5; i++ {
		sh.Record(Event{Kind: Task, Unit: "w", TaskID: i, Start: float64(i), End: float64(i + 1)})
	}
	if sh.Len() != 5 || tr.Len() != 0 {
		t.Fatalf("before flush: shard=%d trace=%d", sh.Len(), tr.Len())
	}
	sh.Flush()
	if sh.Len() != 0 || tr.Len() != 5 {
		t.Fatalf("after flush: shard=%d trace=%d", sh.Len(), tr.Len())
	}
	for i, e := range tr.snapshot() {
		if e.TaskID != i {
			t.Fatalf("event %d has TaskID %d; recording order lost", i, e.TaskID)
		}
	}
	if tr.Dropped() != 0 {
		t.Fatalf("dropped = %d", tr.Dropped())
	}
}

// Past capacity the shard discards its oldest chunks (whole, counted as
// dropped) — memory stays bounded, the tail of the run survives. With
// capacity 4 the chunk size is 4, so recording 7 events seals [0..3], drops
// that chunk when event 4 opens the next one, and keeps [4..6].
func TestShardWrapDropsOldest(t *testing.T) {
	tr := New()
	sh := tr.NewShard(4)
	for i := 0; i < 7; i++ {
		sh.Record(Event{Kind: Task, Unit: "w", TaskID: i})
	}
	if sh.Dropped() != 4 {
		t.Fatalf("shard dropped = %d; want 4", sh.Dropped())
	}
	sh.Flush()
	events := tr.snapshot()
	if len(events) != 3 {
		t.Fatalf("flushed %d events; want 3", len(events))
	}
	for i, e := range events {
		if e.TaskID != i+4 {
			t.Fatalf("event %d has TaskID %d; want %d (oldest chunk dropped, order kept)", i, e.TaskID, i+4)
		}
	}
	if tr.Dropped() != 4 {
		t.Fatalf("trace dropped = %d; want 4", tr.Dropped())
	}
}

func TestShardReusableAfterFlush(t *testing.T) {
	tr := New()
	sh := tr.NewShard(4)
	for i := 0; i < 6; i++ { // wraps once
		sh.Record(Event{Kind: Task, Unit: "w", TaskID: i})
	}
	sh.Flush()
	sh.Record(Event{Kind: Task, Unit: "w", TaskID: 100})
	sh.Flush()
	events := tr.snapshot()
	if last := events[len(events)-1]; last.TaskID != 100 {
		t.Fatalf("post-reuse event = %+v", last)
	}
	if sh.Dropped() != 0 {
		t.Fatalf("dropped not reset: %d", sh.Dropped())
	}
}

// A shard flushed after every event (the cluster worker's pattern) must not
// pin a whole chunk in the parent per event: retained capacity stays a
// small multiple of the retained events.
func TestShardFlushPerEventRetainsExactBlocks(t *testing.T) {
	tr := New()
	tr.SetLimit(256)
	sh := tr.NewShard(0)
	for i := 0; i < 10000; i++ {
		sh.Record(Event{Kind: Task, Unit: "w", TaskID: i})
		sh.Flush()
	}
	events, capacity := tr.Len(), 0
	for _, b := range tr.blocks {
		capacity += cap(b)
	}
	if events == 0 || events > 256 {
		t.Fatalf("trace holds %d events; want 1..256", events)
	}
	if capacity > 2*events {
		t.Fatalf("retained capacity %d events for %d retained events", capacity, events)
	}
}

func TestShardDefaultCapacity(t *testing.T) {
	sh := New().NewShard(0)
	if sh.limit != DefaultShardCapacity {
		t.Fatalf("limit = %d", sh.limit)
	}
}

// One shard per goroutine is the concurrency contract: many producers, no
// locks, one merged trace. Run under -race in CI.
func TestShardsConcurrentProducers(t *testing.T) {
	tr := New()
	const workers, per = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		sh := tr.NewShard(0)
		wg.Add(1)
		go func(w int, sh *Shard) {
			defer wg.Done()
			defer sh.Flush()
			for i := 0; i < per; i++ {
				sh.Record(Event{Kind: Task, Unit: "w", Worker: w, TaskID: i})
			}
		}(w, sh)
	}
	wg.Wait()
	if tr.Len() != workers*per {
		t.Fatalf("len = %d; want %d", tr.Len(), workers*per)
	}
}
