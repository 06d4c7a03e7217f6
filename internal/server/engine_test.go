package server

import (
	"reflect"
	"sync"
	"testing"

	"opaque/internal/protocol"
	"opaque/internal/roadnet"
)

// batchConfig returns the full batch-engine configuration: worker-pool batch
// evaluation, SSMD tree cache, and the server-wide search gate.
func batchConfig() Config {
	cfg := DefaultConfig()
	cfg.BatchWorkers = 4
	cfg.TreeCache = 64
	cfg.MaxConcurrentSearches = 8
	return cfg
}

// overlappingBatch builds queries whose source sets overlap across queries,
// the shared-mode pattern the tree cache exists for.
func overlappingBatch(g *roadnet.Graph, n int) []protocol.ServerQuery {
	nodes := g.NumNodes()
	pick := func(i int) roadnet.NodeID { return roadnet.NodeID(i % nodes) }
	out := make([]protocol.ServerQuery, n)
	for i := range out {
		out[i] = protocol.ServerQuery{
			QueryID: uint64(i + 1),
			Sources: []roadnet.NodeID{pick(3 * (i % 4)), pick(500 + i%3)},
			Dests:   []roadnet.NodeID{pick(200 + 11*(i%5)), pick(700 + i%2)},
		}
	}
	return out
}

// TestEvaluateBatchMatchesSequential checks the engine's correctness
// contract: batched evaluation through the worker pool and tree cache returns
// exactly the candidate paths sequential, uncached evaluation returns.
func TestEvaluateBatchMatchesSequential(t *testing.T) {
	g := testGraph(t)
	plain := MustNew(g, DefaultConfig())
	batched := MustNew(g, batchConfig())
	queries := overlappingBatch(g, 24)

	results := batched.EvaluateBatch(queries)
	if len(results) != len(queries) {
		t.Fatalf("got %d results for %d queries", len(results), len(queries))
	}
	for i, q := range queries {
		want, err := plain.Evaluate(q)
		if err != nil {
			t.Fatalf("query %d: sequential Evaluate: %v", i, err)
		}
		got := results[i]
		if got.Err != nil {
			t.Fatalf("query %d: batch error: %v", i, got.Err)
		}
		if got.Reply.QueryID != q.QueryID {
			t.Errorf("query %d: reply for query %d", i, got.Reply.QueryID)
		}
		// Settled-node counts legitimately differ (cache hits count only
		// incremental work); the returned paths must not.
		if !reflect.DeepEqual(got.Reply.Paths, want.Paths) {
			t.Errorf("query %d: batched candidate paths differ from sequential evaluation", i)
		}
	}
}

// TestEvaluateBatchEmpty checks the zero-length batch degenerates cleanly.
func TestEvaluateBatchEmpty(t *testing.T) {
	srv := MustNew(testGraph(t), batchConfig())
	if results := srv.EvaluateBatch(nil); len(results) != 0 {
		t.Fatalf("EvaluateBatch(nil) returned %d results", len(results))
	}
}

// TestEvaluateBatchPerQueryErrors checks one malformed query fails alone
// without poisoning its batch.
func TestEvaluateBatchPerQueryErrors(t *testing.T) {
	g := testGraph(t)
	srv := MustNew(g, batchConfig())
	queries := overlappingBatch(g, 4)
	queries[2].Sources = nil // malformed: empty source set

	results := srv.EvaluateBatch(queries)
	for i, r := range results {
		if i == 2 {
			if r.Err == nil {
				t.Error("malformed query 2 did not fail")
			}
			continue
		}
		if r.Err != nil {
			t.Errorf("query %d failed alongside the malformed one: %v", i, r.Err)
		}
		if len(r.Reply.Paths) == 0 {
			t.Errorf("query %d returned no candidate paths", i)
		}
	}
}

// TestEvaluateBatchConcurrentHammer hammers EvaluateBatch from many
// goroutines sharing one server (run under -race). Every caller must receive
// exactly the reference paths regardless of interleaving with the shared tree
// cache, gate and sharded accumulators.
func TestEvaluateBatchConcurrentHammer(t *testing.T) {
	g := testGraph(t)
	queries := overlappingBatch(g, 16)

	// Reference answers from a plain sequential server.
	plain := MustNew(g, DefaultConfig())
	want := make([]protocol.ServerReply, len(queries))
	for i, q := range queries {
		reply, err := plain.Evaluate(q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = reply
	}

	srv := MustNew(g, batchConfig())
	const hammers = 8
	const roundsPerHammer = 5
	var wg sync.WaitGroup
	errs := make(chan error, hammers)
	for h := 0; h < hammers; h++ {
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			for round := 0; round < roundsPerHammer; round++ {
				// Each hammer evaluates a rotated view of the shared queries
				// so concurrent batches overlap on sources but differ in
				// order.
				batch := make([]protocol.ServerQuery, len(queries))
				for i := range queries {
					batch[i] = queries[(i+h)%len(queries)]
				}
				for i, r := range srv.EvaluateBatch(batch) {
					if r.Err != nil {
						t.Errorf("hammer %d: query %d: %v", h, i, r.Err)
						return
					}
					if !reflect.DeepEqual(r.Reply.Paths, want[(i+h)%len(queries)].Paths) {
						t.Errorf("hammer %d round %d: query %d paths diverged under concurrency", h, round, i)
						return
					}
				}
			}
		}(h)
	}
	wg.Wait()
	close(errs)

	// The server-level accounting must add up exactly despite the sharding.
	if got, want := srv.mQueries.Value(), int64(hammers*roundsPerHammer*len(queries)); got != want {
		t.Errorf("queries_processed = %d, want %d", got, want)
	}
	if got, want := srv.mBatches.Value(), int64(hammers*roundsPerHammer); got != want {
		t.Errorf("batches_processed = %d, want %d", got, want)
	}
	if _, n := srv.TotalStats(); n != hammers*roundsPerHammer*len(queries) {
		t.Errorf("TotalStats query count = %d, want %d", n, hammers*roundsPerHammer*len(queries))
	}
	if got := len(srv.QueryLog()); got != hammers*roundsPerHammer*len(queries) {
		t.Errorf("query log holds %d entries, want %d", got, hammers*roundsPerHammer*len(queries))
	}
}

// TestBatchMetricsExposeCacheHitRatio checks the acceptance criterion that
// the SSMD tree cache hit ratio is observable through the server's metrics
// registry after batched evaluation.
func TestBatchMetricsExposeCacheHitRatio(t *testing.T) {
	g := testGraph(t)
	srv := MustNew(g, batchConfig())
	queries := overlappingBatch(g, 12)

	// Two identical batches: the second is answered from the cache.
	srv.EvaluateBatch(queries)
	srv.EvaluateBatch(queries)

	reg := srv.Metrics()
	if ratio := reg.Gauge("tree_cache_hit_ratio"); ratio <= 0 {
		t.Errorf("tree_cache_hit_ratio gauge = %v, want > 0 after repeated batches", ratio)
	}
	if reg.Counter("batches_processed") != 2 {
		t.Errorf("batches_processed = %d, want 2", reg.Counter("batches_processed"))
	}
	if reg.Counter("batch_queries") != int64(2*len(queries)) {
		t.Errorf("batch_queries = %d, want %d", reg.Counter("batch_queries"), 2*len(queries))
	}
	st := srv.TreeCacheStats()
	if st.Hits == 0 {
		t.Error("TreeCacheStats reports no hits after repeating a batch")
	}
	if h := reg.Histogram("batch_latency"); h == nil || h.Count() != 2 {
		t.Error("batch_latency histogram missing or not observed twice")
	}
}

// TestBatchQueryMessageRoundTrip drives the wire-level batch path: a
// BatchQuery through the server's streaming handler yields one item per
// query, failures in their own slot.
func TestBatchQueryMessageRoundTrip(t *testing.T) {
	g := testGraph(t)
	srv := MustNew(g, batchConfig())
	queries := overlappingBatch(g, 3)
	queries[1].Dests = nil // malformed slot

	var mu sync.Mutex
	items := make(map[int]protocol.BatchItem)
	streamer := srv.MuxHandler().(protocol.MuxBatchStreamer)
	err := streamer.HandleMuxBatch(protocol.BatchQuery{BatchID: 77, Queries: queries}, protocol.ReqInfo{}, func(item protocol.BatchItem) {
		mu.Lock()
		items[item.Index] = item
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 3 {
		t.Fatalf("got %d items, want 3", len(items))
	}
	if items[1].Error == "" {
		t.Error("malformed query 1 produced no error message")
	}
	for _, i := range []int{0, 2} {
		if items[i].BatchID != 77 || items[i].Error != "" {
			t.Errorf("query %d: batch %d, error %q", i, items[i].BatchID, items[i].Error)
		}
		if len(items[i].Reply.Paths) == 0 {
			t.Errorf("query %d returned no candidate paths", i)
		}
	}
}
