package server

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"opaque/internal/protocol"
	"opaque/internal/roadnet"
	"opaque/internal/search"
	"opaque/internal/storage"
	"opaque/internal/traffic"
)

// arcPool collects up to max distinct (from,to) arc pairs of the graph,
// remembering their original costs for revert events.
func arcPool(g *roadnet.Graph, max int) ([][2]roadnet.NodeID, map[[2]roadnet.NodeID]float64) {
	pool := make([][2]roadnet.NodeID, 0, max)
	orig := make(map[[2]roadnet.NodeID]float64, max)
	for v := 0; v < g.NumNodes() && len(pool) < max; v++ {
		for _, a := range g.Arcs(roadnet.NodeID(v)) {
			key := [2]roadnet.NodeID{roadnet.NodeID(v), a.To}
			if _, seen := orig[key]; seen {
				continue
			}
			orig[key] = a.Cost
			pool = append(pool, key)
			if len(pool) == max {
				break
			}
		}
	}
	return pool, orig
}

// TestIngestCoalescedEquivalentToSequential is the end-to-end property test:
// a server fed through the streaming pipeline — coalesced batches, pipelined
// re-customization, concurrent batch queries hammering it the whole time —
// must end at exactly the graph a plain per-event sequential fold produces,
// and must have gotten there with fewer applied changes than raw events.
func TestIngestCoalescedEquivalentToSequential(t *testing.T) {
	g := updateTestGraph(t, 80, 701)
	cfg := DefaultConfig()
	cfg.Strategy = StrategyHybrid
	cfg.BuildCH = true
	cfg.PartitionCells = 4
	s := MustNew(g, cfg)

	pool, orig := arcPool(g, 24)
	rng := rand.New(rand.NewSource(702))
	const nEvents = 1200
	events := make([]roadnet.ArcWeightChange, 0, nEvents)
	for i := 0; i < nEvents; i++ {
		key := pool[rng.Intn(len(pool))]
		cost := 1 + rng.Float64()*30
		if rng.Intn(4) == 0 {
			cost = orig[key] // revert to the startup weight
		}
		events = append(events, roadnet.ArcWeightChange{From: key[0], To: key[1], NewCost: cost})
	}

	// Reference: fold the same events one at a time, no coalescing.
	seq := g
	for _, e := range events {
		var err error
		seq, err = seq.WithUpdatedWeights([]roadnet.ArcWeightChange{e})
		if err != nil {
			t.Fatal(err)
		}
	}

	in, err := s.NewIngestor(traffic.Config{MaxBatch: 32, MaxDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}

	// Concurrent batch-query load for the whole stream. Replies are not
	// verified here — the snapshot they ran against is gone by the time the
	// worker sees them — this load exists so the race detector can watch
	// queries overlap snapshot swaps and overlay refreshes.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			qrng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				qs := make([]protocol.ServerQuery, 3)
				for i := range qs {
					qs[i] = protocol.ServerQuery{
						Sources: []roadnet.NodeID{roadnet.NodeID(qrng.Intn(g.NumNodes()))},
						Dests:   []roadnet.NodeID{roadnet.NodeID(qrng.Intn(g.NumNodes()))},
					}
				}
				for _, r := range s.EvaluateBatch(qs) {
					if r.Err != nil {
						t.Errorf("batch query during churn: %v", r.Err)
						return
					}
				}
			}
		}(703 + int64(w))
	}

	for i, e := range events {
		if err := in.Ingest(e); err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if i%157 == 0 {
			if err := in.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()

	got := s.Graph()
	if got.ContentChecksum() != seq.ContentChecksum() {
		t.Fatalf("coalesced stream diverged from sequential fold: checksum %x != %x", got.ContentChecksum(), seq.ContentChecksum())
	}
	for _, key := range pool {
		wantCost, _ := seq.ArcCost(key[0], key[1])
		gotCost, _ := got.ArcCost(key[0], key[1])
		if gotCost != wantCost {
			t.Fatalf("arc %v: coalesced cost %v, sequential cost %v", key, gotCost, wantCost)
		}
	}

	st := in.Stats()
	if st.Events != nEvents {
		t.Errorf("Events = %d, want %d", st.Events, nEvents)
	}
	if st.AppliedChanges >= st.Events {
		t.Errorf("AppliedChanges = %d, Events = %d: coalescing never collapsed anything", st.AppliedChanges, st.Events)
	}
	if st.Batches == 0 || st.ApplyFailures != 0 {
		t.Errorf("Batches = %d, ApplyFailures = %d", st.Batches, st.ApplyFailures)
	}

	// Close drained, applied and published: the epoch must be the final
	// graph's and full-speed queries must serve final-metric distances.
	if !s.OverlayFresh() {
		t.Fatal("applied batches still unpublished after Close")
	}
	if n := s.pendingCellCount(); n != 0 {
		t.Errorf("recustomize_pending_cells = %d after Close, want 0", n)
	}
	reply, err := s.Evaluate(protocol.ServerQuery{
		Sources: []roadnet.NodeID{pool[0][0]},
		Dests:   []roadnet.NodeID{pool[1][1]},
	})
	if err != nil {
		t.Fatal(err)
	}
	checkReplyMatchesGraph(t, got, reply)
}

// TestChurnSoak is the sustained-churn soak: a continuous event stream over a
// hot arc pool, with queries after every applied batch verified against the
// reference Dijkstra on the snapshot their reply's ContentSum names, and a
// monitor bounding the visibility lag.
func TestChurnSoak(t *testing.T) {
	g := updateTestGraph(t, 100, 711)
	cfg := DefaultConfig()
	cfg.Strategy = StrategyHybrid
	cfg.BuildCH = true
	cfg.PartitionCells = 6
	s := MustNew(g, cfg)

	pool, orig := arcPool(g, 16)
	rng := rand.New(rand.NewSource(712))

	// Per-batch verification runs on the coalescer goroutine, right after the
	// snapshot swap and before the next batch can apply. The refresh worker
	// publishes concurrently, so a reply may come from the batch's graph or an
	// earlier one: every graph the stream produced is recorded by its content
	// checksum, and each reply is checked against the one its ContentSum
	// names. Errors are collected, not Fatal-ed: FailNow must not kill the
	// coalescer goroutine.
	var verifyMu sync.Mutex
	var verifyErrs []string
	verified := 0
	vrng := rand.New(rand.NewSource(713))
	graphs := map[uint64]*roadnet.Graph{g.ContentChecksum(): g}
	onApplied := func(changes []roadnet.ArcWeightChange, gen uint64) {
		cur := s.Graph()
		graphs[cur.ContentChecksum()] = cur
		for i := 0; i < 2; i++ {
			src := roadnet.NodeID(vrng.Intn(g.NumNodes()))
			dst := roadnet.NodeID(vrng.Intn(g.NumNodes()))
			reply, err := s.Evaluate(protocol.ServerQuery{Sources: []roadnet.NodeID{src}, Dests: []roadnet.NodeID{dst}})
			verifyMu.Lock()
			served, known := graphs[reply.ContentSum]
			if err != nil {
				verifyErrs = append(verifyErrs, fmt.Sprintf("gen %d: query (%d,%d): %v", gen, src, dst, err))
			} else if !known {
				verifyErrs = append(verifyErrs, fmt.Sprintf("gen %d: reply ContentSum %x names no graph of the stream", gen, reply.ContentSum))
			} else {
				acc := storage.NewMemoryGraph(served)
				for _, cand := range reply.Paths {
					// No t.Fatal-based helpers here: FailNow on the coalescer
					// goroutine would kill it and hang Close.
					want := math.Inf(1)
					if p, _, derr := search.ReferenceDijkstra(acc, cand.Source, cand.Dest); derr != nil {
						verifyErrs = append(verifyErrs, fmt.Sprintf("gen %d: reference (%d,%d): %v", gen, cand.Source, cand.Dest, derr))
						continue
					} else if len(p.Nodes) > 0 || cand.Source == cand.Dest {
						want = p.Cost
					}
					got := cand.Cost
					if len(cand.Nodes) == 0 && cand.Source != cand.Dest {
						got = math.Inf(1)
					}
					if got != want {
						verifyErrs = append(verifyErrs,
							fmt.Sprintf("gen %d (batch of %d): pair (%d,%d) served %v, snapshot says %v", gen, len(changes), cand.Source, cand.Dest, got, want))
					}
				}
				verified++
			}
			verifyMu.Unlock()
		}
	}

	in, err := s.NewIngestor(traffic.Config{
		MaxBatch:  16,
		MaxDelay:  2 * time.Millisecond,
		OnApplied: onApplied,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Visibility-lag monitor: the longest contiguous stretch an applied batch
	// spent unpublished must stay near one incremental re-customization
	// latency — far below this generous bound — because the pipelined refresh
	// worker always has at most one run pending and each run starts from the
	// freshest snapshot.
	monitorStop := make(chan struct{})
	var monitorWg sync.WaitGroup
	var worstStale int64 // nanoseconds
	monitorWg.Add(1)
	go func() {
		defer monitorWg.Done()
		var staleSince time.Time
		tick := time.NewTicker(500 * time.Microsecond)
		defer tick.Stop()
		for {
			select {
			case <-monitorStop:
				return
			case <-tick.C:
				if s.OverlayFresh() {
					staleSince = time.Time{}
					continue
				}
				if staleSince.IsZero() {
					staleSince = time.Now()
				} else if d := time.Since(staleSince); int64(d) > worstStale {
					worstStale = int64(d)
				}
			}
		}
	}()

	const nEvents = 800
	for i := 0; i < nEvents; i++ {
		key := pool[rng.Intn(len(pool))]
		cost := 1 + rng.Float64()*25
		if rng.Intn(5) == 0 {
			cost = orig[key]
		}
		if err := in.Ingest(roadnet.ArcWeightChange{From: key[0], To: key[1], NewCost: cost}); err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
	}
	// Bad events are rejected at the boundary without disturbing the stream.
	for _, bad := range []roadnet.ArcWeightChange{
		{From: pool[0][0], To: pool[0][1], NewCost: math.NaN()},
		{From: pool[0][0], To: pool[0][1], NewCost: -3},
		{From: roadnet.NodeID(g.NumNodes() + 7), To: 0, NewCost: 1},
	} {
		if err := in.Ingest(bad); err == nil {
			t.Errorf("bad event %+v accepted", bad)
		}
	}
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}
	close(monitorStop)
	monitorWg.Wait()

	verifyMu.Lock()
	for _, e := range verifyErrs {
		t.Error(e)
	}
	nVerified := verified
	verifyMu.Unlock()
	if nVerified == 0 {
		t.Fatal("per-batch verification never ran")
	}

	st := in.Stats()
	if st.Events != nEvents {
		t.Errorf("Events = %d, want %d", st.Events, nEvents)
	}
	if st.Rejected != 3 {
		t.Errorf("Rejected = %d, want 3", st.Rejected)
	}
	if st.Batches == 0 || st.Batches >= st.Events {
		t.Errorf("Batches = %d for %d events: coalescing ineffective", st.Batches, st.Events)
	}
	if st.CoalesceRatio() <= 1 {
		t.Errorf("coalesce ratio = %v, want > 1", st.CoalesceRatio())
	}
	// Re-customization work scales with batches, not raw events: refresh runs
	// fold, so there are at most as many as batches — and with 16 hot arcs
	// per batch, far fewer than events.
	if st.RefreshRuns == 0 || st.RefreshRuns > st.Batches {
		t.Errorf("RefreshRuns = %d (batches %d): refresh folding broken", st.RefreshRuns, st.Batches)
	}
	if st.RefreshFailures != 0 || st.ApplyFailures != 0 {
		t.Errorf("failures: refresh %d apply %d", st.RefreshFailures, st.ApplyFailures)
	}

	if !s.OverlayFresh() {
		t.Fatal("applied batches still unpublished after Close")
	}
	if n := s.pendingCellCount(); n != 0 {
		t.Errorf("pending cells = %d after Close, want 0", n)
	}
	if worst := time.Duration(worstStale); worst > 5*time.Second {
		t.Errorf("worst visibility lag %v: refresh pipeline is not keeping up", worst)
	}
	reply, err := s.Evaluate(protocol.ServerQuery{Sources: []roadnet.NodeID{2}, Dests: []roadnet.NodeID{9}})
	if err != nil {
		t.Fatal(err)
	}
	checkReplyMatchesGraph(t, s.Graph(), reply)
}

// TestIngestorRefusedConfigurations mirrors the UpdateWeights refusal of
// paged deployments at pipeline-construction time.
func TestIngestorRefusedConfigurations(t *testing.T) {
	g := updateTestGraph(t, 40, 721)

	paged := DefaultConfig()
	paged.Paged = true
	sp := MustNew(g, paged)
	if _, err := sp.NewIngestor(traffic.Config{}); err == nil {
		t.Error("ingestion on a paged server must be refused")
	}
}
