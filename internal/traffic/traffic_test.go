package traffic

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"opaque/internal/gen"
	"opaque/internal/roadnet"
)

// testGraph generates a small frozen network for ingestion tests.
func testGraph(t *testing.T, nodes int, seed uint64) *roadnet.Graph {
	t.Helper()
	cfg := gen.DefaultNetworkConfig()
	cfg.Kind = gen.TigerLike
	cfg.Nodes = nodes
	cfg.Seed = seed
	g, err := gen.Generate(cfg)
	if err != nil {
		t.Fatalf("generating graph: %v", err)
	}
	return g
}

// graphSink applies batches to a copy-on-write graph lineage and records
// them, standing in for the server's ApplyWeights.
type graphSink struct {
	mu      sync.Mutex
	g       *roadnet.Graph
	batches [][]roadnet.ArcWeightChange
	gen     uint64
}

func (s *graphSink) ApplyWeights(changes []roadnet.ArcWeightChange) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ng, err := s.g.WithUpdatedWeights(changes)
	if err != nil {
		return 0, err
	}
	s.g = ng
	s.gen++
	cp := make([]roadnet.ArcWeightChange, len(changes))
	copy(cp, changes)
	s.batches = append(s.batches, cp)
	return s.gen, nil
}

func (s *graphSink) graph() *roadnet.Graph {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.g
}

func (s *graphSink) numBatches() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.batches)
}

// countingRefresher counts refresh runs, optionally sleeping to simulate a
// long re-customization.
type countingRefresher struct {
	runs  atomic64
	sleep time.Duration
}

type atomic64 struct {
	mu sync.Mutex
	v  int64
}

func (a *atomic64) add() { a.mu.Lock(); a.v++; a.mu.Unlock() }
func (a *atomic64) load() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.v
}

func (r *countingRefresher) RecustomizeNow() error {
	r.runs.add()
	if r.sleep > 0 {
		time.Sleep(r.sleep)
	}
	return nil
}

// noopRefresher publishes nothing: graphSink has no derived state.
type noopRefresher struct{}

func (noopRefresher) RecustomizeNow() error { return nil }

// anyArc returns one arc of g with a positive cost.
func anyArc(t *testing.T, g *roadnet.Graph) roadnet.ArcWeightChange {
	t.Helper()
	for v := 0; v < g.NumNodes(); v++ {
		arcs := g.Arcs(roadnet.NodeID(v))
		if len(arcs) > 0 {
			return roadnet.ArcWeightChange{From: roadnet.NodeID(v), To: arcs[0].To, NewCost: arcs[0].Cost}
		}
	}
	t.Fatal("graph has no arcs")
	return roadnet.ArcWeightChange{}
}

func TestIngestBoundaryValidation(t *testing.T) {
	g := testGraph(t, 200, 7)
	sink := &graphSink{g: g}
	if _, err := NewIngestor(sink, nil, Config{}); err == nil {
		t.Fatal("nil refresher accepted")
	}
	in, err := NewIngestor(sink, noopRefresher{}, Config{MaxWeight: 1e6, Topology: g})
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()

	ok := anyArc(t, g)
	bad := []struct {
		name string
		ev   roadnet.ArcWeightChange
	}{
		{"nan", roadnet.ArcWeightChange{From: ok.From, To: ok.To, NewCost: math.NaN()}},
		{"inf", roadnet.ArcWeightChange{From: ok.From, To: ok.To, NewCost: math.Inf(1)}},
		{"negative", roadnet.ArcWeightChange{From: ok.From, To: ok.To, NewCost: -1}},
		{"out-of-range", roadnet.ArcWeightChange{From: ok.From, To: ok.To, NewCost: 1e7}},
		{"unknown-node", roadnet.ArcWeightChange{From: roadnet.NodeID(g.NumNodes() + 5), To: ok.To, NewCost: 1}},
		{"missing-arc", roadnet.ArcWeightChange{From: ok.From, To: ok.From, NewCost: 1}},
	}
	for _, tc := range bad {
		err := in.Ingest(tc.ev)
		var inv *InvalidEventError
		if !errors.As(err, &inv) {
			t.Errorf("%s: want *InvalidEventError, got %v", tc.name, err)
		}
	}
	st := in.Stats()
	if st.Rejected != int64(len(bad)) {
		t.Errorf("Rejected = %d, want %d", st.Rejected, len(bad))
	}
	if st.Events != 0 || sink.numBatches() != 0 {
		t.Errorf("rejected events reached the pipeline: events=%d batches=%d", st.Events, sink.numBatches())
	}
}

func TestCoalescingLastWriteWins(t *testing.T) {
	g := testGraph(t, 200, 8)
	sink := &graphSink{g: g}
	// Huge delay and batch size: only Flush triggers the apply, so all ten
	// writes to the same arc must coalesce into one change with the last
	// value.
	in, err := NewIngestor(sink, noopRefresher{}, Config{MaxBatch: 1 << 20, MaxDelay: time.Hour, Topology: g})
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()

	a := anyArc(t, g)
	for i := 1; i <= 10; i++ {
		if err := in.Ingest(roadnet.ArcWeightChange{From: a.From, To: a.To, NewCost: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := in.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := sink.numBatches(); n != 1 {
		t.Fatalf("batches = %d, want 1", n)
	}
	if len(sink.batches[0]) != 1 {
		t.Fatalf("batch size = %d, want 1 coalesced change", len(sink.batches[0]))
	}
	if got := sink.batches[0][0].NewCost; got != 10 {
		t.Errorf("coalesced cost = %v, want last-write 10", got)
	}
	st := in.Stats()
	if st.Events != 10 || st.AppliedChanges != 1 {
		t.Errorf("events=%d applied=%d, want 10/1", st.Events, st.AppliedChanges)
	}
	if r := st.CoalesceRatio(); r != 10 {
		t.Errorf("coalesce ratio = %v, want 10", r)
	}
}

func TestMaxBatchTrigger(t *testing.T) {
	g := testGraph(t, 200, 9)
	sink := &graphSink{g: g}
	in, err := NewIngestor(sink, noopRefresher{}, Config{MaxBatch: 4, MaxDelay: time.Hour, Topology: g})
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()

	// Four events on distinct arcs must flush without any Flush call or
	// delay expiry.
	sent := 0
	for v := 0; v < g.NumNodes() && sent < 4; v++ {
		for _, a := range g.Arcs(roadnet.NodeID(v)) {
			in.Ingest(roadnet.ArcWeightChange{From: roadnet.NodeID(v), To: a.To, NewCost: a.Cost * 2})
			sent++
			break
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for sink.numBatches() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := sink.numBatches(); n != 1 {
		t.Fatalf("batches = %d, want 1 (size trigger)", n)
	}
	if len(sink.batches[0]) != 4 {
		t.Errorf("batch size = %d, want 4", len(sink.batches[0]))
	}
}

func TestMaxDelayTrigger(t *testing.T) {
	g := testGraph(t, 200, 10)
	sink := &graphSink{g: g}
	in, err := NewIngestor(sink, noopRefresher{}, Config{MaxBatch: 1 << 20, MaxDelay: 5 * time.Millisecond, Topology: g})
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()

	a := anyArc(t, g)
	if err := in.Ingest(roadnet.ArcWeightChange{From: a.From, To: a.To, NewCost: a.NewCost * 3}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for sink.numBatches() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := sink.numBatches(); n != 1 {
		t.Fatalf("batches = %d, want 1 (delay trigger)", n)
	}
}

func TestCloseDrainsAndRefreshes(t *testing.T) {
	g := testGraph(t, 200, 11)
	sink := &graphSink{g: g}
	ref := &countingRefresher{}
	in, err := NewIngestor(sink, ref, Config{MaxBatch: 1 << 20, MaxDelay: time.Hour, Topology: g})
	if err != nil {
		t.Fatal(err)
	}
	a := anyArc(t, g)
	if err := in.Ingest(roadnet.ArcWeightChange{From: a.From, To: a.To, NewCost: 42}); err != nil {
		t.Fatal(err)
	}
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}
	if n := sink.numBatches(); n != 1 {
		t.Fatalf("batches after Close = %d, want 1", n)
	}
	if got, _ := sink.graph().ArcCost(a.From, a.To); got != 42 {
		t.Errorf("arc cost after Close = %v, want 42", got)
	}
	if ref.runs.load() == 0 {
		t.Error("refresher never ran; Close must catch the overlay up")
	}
	if err := in.Ingest(a); !errors.Is(err, ErrClosed) {
		t.Errorf("Ingest after Close = %v, want ErrClosed", err)
	}
	if err := in.Flush(); !errors.Is(err, ErrClosed) {
		t.Errorf("Flush after Close = %v, want ErrClosed", err)
	}
	if err := in.Close(); err != nil {
		t.Errorf("second Close = %v, want nil", err)
	}
}

func TestRefreshFolding(t *testing.T) {
	g := testGraph(t, 200, 12)
	sink := &graphSink{g: g}
	// A slow refresher: while one run sleeps, every batch applied in the
	// meantime must fold into a single pending signal.
	ref := &countingRefresher{sleep: 50 * time.Millisecond}
	in, err := NewIngestor(sink, ref, Config{MaxBatch: 1, MaxDelay: time.Hour, Topology: g})
	if err != nil {
		t.Fatal(err)
	}
	const events = 10
	a := anyArc(t, g)
	for i := 0; i < events; i++ {
		if err := in.Ingest(roadnet.ArcWeightChange{From: a.From, To: a.To, NewCost: float64(i + 1)}); err != nil {
			t.Fatal(err)
		}
		// MaxBatch 1 turns every event into its own applied batch.
		if err := in.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}
	st := in.Stats()
	if st.Batches != events {
		t.Fatalf("batches = %d, want %d", st.Batches, events)
	}
	if st.RefreshRuns >= st.Batches {
		t.Errorf("refresh runs = %d for %d batches; pipelining must fold concurrent batches into fewer runs", st.RefreshRuns, st.Batches)
	}
	if st.RefreshRuns == 0 {
		t.Error("refresher never ran")
	}
}

// TestCoalescedEquivalentToSequential is the package-level property test:
// however the stream is batched (random flush points, interleaved arcs,
// revert-to-original sequences), the sink's final graph must equal the graph
// obtained by applying every raw event one at a time, in order.
func TestCoalescedEquivalentToSequential(t *testing.T) {
	g := testGraph(t, 400, 13)
	rng := rand.New(rand.NewSource(99))

	// A pool of hot arcs, remembering original costs so the stream can
	// revert arcs to their exact initial weights (the checksum fold must
	// cancel back to the original).
	type arc struct {
		from, to roadnet.NodeID
		orig     float64
	}
	var pool []arc
	for v := 0; v < g.NumNodes() && len(pool) < 40; v++ {
		for _, a := range g.Arcs(roadnet.NodeID(v)) {
			pool = append(pool, arc{roadnet.NodeID(v), a.To, a.Cost})
			break
		}
	}

	const events = 3000
	stream := make([]roadnet.ArcWeightChange, events)
	for i := range stream {
		a := pool[rng.Intn(len(pool))]
		cost := a.orig * (0.25 + 2*rng.Float64())
		if rng.Intn(5) == 0 {
			cost = a.orig // revert-to-original
		}
		stream[i] = roadnet.ArcWeightChange{From: a.from, To: a.to, NewCost: cost}
	}

	// Reference: raw sequential application, one event per snapshot.
	seq := g
	for _, ev := range stream {
		next, err := seq.WithUpdatedWeights([]roadnet.ArcWeightChange{ev})
		if err != nil {
			t.Fatal(err)
		}
		seq = next
	}

	sink := &graphSink{g: g}
	in, err := NewIngestor(sink, noopRefresher{}, Config{MaxBatch: 32, MaxDelay: time.Hour, Topology: g})
	if err != nil {
		t.Fatal(err)
	}
	for i, ev := range stream {
		if err := in.Ingest(ev); err != nil {
			t.Fatal(err)
		}
		if rng.Intn(100) == 0 {
			if err := in.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		_ = i
	}
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}

	got := sink.graph()
	if got.ContentChecksum() != seq.ContentChecksum() {
		t.Fatalf("coalesced checksum %x != sequential checksum %x", got.ContentChecksum(), seq.ContentChecksum())
	}
	for _, a := range pool {
		gc, _ := got.ArcCost(a.from, a.to)
		sc, _ := seq.ArcCost(a.from, a.to)
		if gc != sc {
			t.Errorf("arc %d→%d: coalesced %v != sequential %v", a.from, a.to, gc, sc)
		}
	}
	st := in.Stats()
	if st.Events != events {
		t.Errorf("events = %d, want %d", st.Events, events)
	}
	if st.AppliedChanges >= events {
		t.Errorf("applied changes = %d for %d raw events; coalescing never collapsed anything", st.AppliedChanges, events)
	}
}
