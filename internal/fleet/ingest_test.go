package fleet_test

// The streaming ingestion pipeline in front of the fleet: a traffic.Ingestor
// whose sink is the router, so every coalesced batch is one fleet-wide
// UpdateWeights — broadcast, applied and published on the shards before the
// next batch leaves the coalescer.

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"opaque/internal/fleet"
	"opaque/internal/fleet/fleettest"
	"opaque/internal/protocol"
	"opaque/internal/roadnet"
	"opaque/internal/search"
	"opaque/internal/storage"
	"opaque/internal/traffic"
)

var _ traffic.Sink = (*fleet.Router)(nil)

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

// replyMismatch describes the first slot of rep, the reply to q, whose cost
// or reachability differs from reference Dijkstra on acc, or that cannot be
// read, or returns "" when every slot matches. It does not fail the test, so
// a sink can call it on the coalescer goroutine.
func replyMismatch(acc storage.Accessor, q protocol.ServerQuery, rep protocol.ServerReply) string {
	cells, err := readTable(q, rep)
	if err != nil {
		return err.Error()
	}
	for _, cand := range cells {
		p, _, err := search.ReferenceDijkstra(acc, cand.Source, cand.Dest)
		if err != nil {
			return fmt.Sprintf("reference (%d,%d): %v", cand.Source, cand.Dest, err)
		}
		found := len(p.Nodes) > 0
		if cand.Found != found || (found && math.Abs(cand.Cost-p.Cost) > 1e-9) {
			return fmt.Sprintf("pair (%d,%d): served found=%v cost %v, reference found=%v cost %v",
				cand.Source, cand.Dest, cand.Found, cand.Cost, found, p.Cost)
		}
	}
	return ""
}

// TestIngestCoalescedEquivalentToSequential is the end-to-end property test:
// a fleet fed through the streaming pipeline — coalesced batches, each
// published by every shard, concurrent batch queries hammering the router
// the whole time — must end at exactly the graph a plain per-event
// sequential fold produces, and must have gotten there with fewer applied
// changes than raw events.
func TestIngestCoalescedEquivalentToSequential(t *testing.T) {
	g := testGraph(t, 200, 701)
	cfg := hybridConfig()
	// Quorum 2: when the ingestor's Close returns, every shard has published
	// every batch.
	cl, err := fleettest.New(g, fleettest.Options{Shards: 2, Server: cfg, Fleet: fleet.Config{UpdateQuorum: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

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

	in, err := traffic.NewIngestor(cl.Router, traffic.Config{MaxBatch: 32, MaxDelay: time.Millisecond, Topology: g})
	if err != nil {
		t.Fatal(err)
	}

	// Concurrent batch-query load for the whole stream. Replies are not
	// verified here — the snapshot they ran against is gone by the time the
	// worker sees them — this load exists so the race detector can watch
	// queries overlap snapshot swaps and overlay refreshes on the shards.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, errs := cl.Router.ExecuteBatch(makeQueries(g, 3, seed))
				seed++
				for _, err := range errs {
					if err != nil {
						t.Errorf("batch query during churn: %v", err)
						return
					}
				}
			}
		}(703 + 1000*int64(w))
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

	for i := 0; i < cl.NumShards(); i++ {
		srv := cl.Shard(i).Server()
		got := srv.Graph()
		if got.ContentChecksum() != seq.ContentChecksum() {
			t.Fatalf("shard %d: coalesced stream diverged from sequential fold: checksum %x != %x", i, got.ContentChecksum(), seq.ContentChecksum())
		}
		for _, key := range pool {
			wantCost, _ := seq.ArcCost(key[0], key[1])
			gotCost, _ := got.ArcCost(key[0], key[1])
			if gotCost != wantCost {
				t.Fatalf("shard %d arc %v: coalesced cost %v, sequential cost %v", i, key, gotCost, wantCost)
			}
		}
		if !srv.OverlayFresh() {
			t.Fatalf("shard %d: applied batches still unpublished after Close", i)
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

	// Full-speed queries through the router serve final-metric distances.
	acc := storage.NewMemoryGraph(seq)
	for _, q := range makeQueries(g, 6, 704) {
		rep, err := cl.Router.Execute(q)
		if err != nil {
			t.Fatal(err)
		}
		if msg := replyMismatch(acc, q, rep); msg != "" {
			t.Fatalf("query %d after Close: %s", q.QueryID, msg)
		}
	}
}

// verifyingSink is the router as the ingestor's sink, checking the fleet
// after every batch: it keeps its own copy-on-write lineage of the stream
// (every graph a shard can be serving, by content checksum) and, once the
// router has published a batch, sends queries through the router and checks
// each reply against reference Dijkstra on the graph its ContentSum names.
type verifyingSink struct {
	t      *testing.T
	router *fleet.Router
	rng    *rand.Rand
	cur    *roadnet.Graph
	graphs map[uint64]*roadnet.Graph

	verified int
}

func (s *verifyingSink) UpdateWeights(changes []roadnet.ArcWeightChange) error {
	next, err := s.cur.WithUpdatedWeights(changes)
	if err != nil {
		return err
	}
	s.cur = next
	s.graphs[next.ContentChecksum()] = next
	if err := s.router.UpdateWeights(changes); err != nil {
		return err
	}
	n := s.cur.NumNodes()
	for i := 0; i < 2; i++ {
		q := protocol.ServerQuery{
			Sources: []roadnet.NodeID{roadnet.NodeID(s.rng.Intn(n))},
			Dests:   []roadnet.NodeID{roadnet.NodeID(s.rng.Intn(n))},
		}
		rep, err := s.router.Execute(q)
		if err != nil {
			s.t.Errorf("batch of %d: query %v→%v: %v", len(changes), q.Sources, q.Dests, err)
			continue
		}
		served, known := s.graphs[rep.ContentSum]
		if !known {
			s.t.Errorf("batch of %d: reply ContentSum %x names no graph of the stream", len(changes), rep.ContentSum)
			continue
		}
		if msg := replyMismatch(storage.NewMemoryGraph(served), q, rep); msg != "" {
			s.t.Errorf("batch of %d: %s", len(changes), msg)
		}
		s.verified++
	}
	return nil
}

// TestChurnSoak is the sustained-churn soak: a continuous event stream over a
// hot arc pool ingested into the fleet, with queries after every published
// batch verified against the reference Dijkstra on the snapshot their reply's
// ContentSum names, and a monitor bounding every shard's visibility lag.
func TestChurnSoak(t *testing.T) {
	g := testGraph(t, 200, 711)
	cfg := hybridConfig()
	cl, err := fleettest.New(g, fleettest.Options{Shards: 2, Server: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	pool, orig := arcPool(g, 16)
	rng := rand.New(rand.NewSource(712))
	sink := &verifyingSink{
		t:      t,
		router: cl.Router,
		rng:    rand.New(rand.NewSource(713)),
		cur:    g,
		graphs: map[uint64]*roadnet.Graph{g.ContentChecksum(): g},
	}
	in, err := traffic.NewIngestor(sink, traffic.Config{MaxBatch: 16, MaxDelay: 2 * time.Millisecond, Topology: g})
	if err != nil {
		t.Fatal(err)
	}

	// Visibility-lag monitor: the longest contiguous stretch any shard spent
	// with an applied update unpublished must stay near one incremental
	// re-customization latency — far below this generous bound — because a
	// shard publishes every update before it acknowledges it, and the
	// ingestor has one batch in flight at a time.
	monitorStop := make(chan struct{})
	var monitorWg sync.WaitGroup
	var worstStale time.Duration
	monitorWg.Add(1)
	go func() {
		defer monitorWg.Done()
		staleSince := make([]time.Time, cl.NumShards())
		tick := time.NewTicker(500 * time.Microsecond)
		defer tick.Stop()
		for {
			select {
			case <-monitorStop:
				return
			case <-tick.C:
			}
			for i := range staleSince {
				if cl.Shard(i).Server().OverlayFresh() {
					staleSince[i] = time.Time{}
					continue
				}
				if staleSince[i].IsZero() {
					staleSince[i] = time.Now()
				} else if d := time.Since(staleSince[i]); d > worstStale {
					worstStale = d
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

	if sink.verified == 0 {
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
	if st.ApplyFailures != 0 {
		t.Errorf("ApplyFailures = %d", st.ApplyFailures)
	}
	if worstStale > 5*time.Second {
		t.Errorf("worst visibility lag %v: publication is not keeping up", worstStale)
	}

	// The default quorum of 1 lets the other shard finish the last batch in
	// the background; once it has, every shard holds the final graph and
	// has published it: its served epoch is the applied one.
	final := sink.cur
	for i := 0; i < cl.NumShards(); i++ {
		srv := cl.Shard(i).Server()
		deadline := time.Now().Add(10 * time.Second)
		for {
			onFinal := srv.Graph().ContentChecksum() == final.ContentChecksum()
			fresh := srv.OverlayFresh()
			if onFinal && fresh {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("shard %d: holds the stream's final graph = %v, published epoch is the applied one = %v", i, onFinal, fresh)
			}
			time.Sleep(time.Millisecond)
		}
	}
	acc := storage.NewMemoryGraph(final)
	for _, q := range makeQueries(g, 6, 714) {
		rep, err := cl.Router.Execute(q)
		if err != nil {
			t.Fatal(err)
		}
		if msg := replyMismatch(acc, q, rep); msg != "" {
			t.Fatalf("query %d after Close: %s", q.QueryID, msg)
		}
	}
}
