package traffic

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
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
// them, standing in for the fleet's UpdateWeights. With delay set, every
// call blocks that long before it returns, as a publication does.
type graphSink struct {
	mu      sync.Mutex
	g       *roadnet.Graph
	batches [][]roadnet.ArcWeightChange
	delay   time.Duration
	inCall  atomic.Bool
	entered chan struct{} // when set, receives once per call on entry
}

func (s *graphSink) UpdateWeights(changes []roadnet.ArcWeightChange) error {
	s.inCall.Store(true)
	defer s.inCall.Store(false)
	if s.entered != nil {
		s.entered <- struct{}{}
	}
	time.Sleep(s.delay)
	s.mu.Lock()
	defer s.mu.Unlock()
	ng, err := s.g.WithUpdatedWeights(changes)
	if err != nil {
		return err
	}
	s.g = ng
	cp := make([]roadnet.ArcWeightChange, len(changes))
	copy(cp, changes)
	s.batches = append(s.batches, cp)
	return nil
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
	if _, err := NewIngestor(nil, Config{Topology: g}); err == nil {
		t.Fatal("nil sink accepted")
	}
	if _, err := NewIngestor(sink, Config{}); err == nil {
		t.Fatal("nil topology accepted")
	}
	in, err := NewIngestor(sink, Config{Topology: g})
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
	in, err := NewIngestor(sink, Config{MaxBatch: 1 << 20, MaxDelay: time.Hour, Topology: g})
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
	in, err := NewIngestor(sink, Config{MaxBatch: 4, MaxDelay: time.Hour, Topology: g})
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
	in, err := NewIngestor(sink, Config{MaxBatch: 1 << 20, MaxDelay: 5 * time.Millisecond, Topology: g})
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
	in, err := NewIngestor(sink, Config{MaxBatch: 1 << 20, MaxDelay: time.Hour, Topology: g})
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

// TestFoldingByBlocking pins how the pipeline folds: the sink blocks while
// it publishes, and the events ingested meanwhile wait in the queue and
// coalesce into the next batch. The ten events on one arc end in at most two
// batches: the first event's, in flight while the other nine arrive, and
// one for those.
func TestFoldingByBlocking(t *testing.T) {
	g := testGraph(t, 200, 12)
	// entered holds a signal for every call the test can cause, so no call
	// blocks on it; the test reads the first.
	sink := &graphSink{g: g, delay: 50 * time.Millisecond, entered: make(chan struct{}, 16)}
	in, err := NewIngestor(sink, Config{MaxDelay: time.Hour, Topology: g})
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	a := anyArc(t, g)
	if err := in.Ingest(roadnet.ArcWeightChange{From: a.From, To: a.To, NewCost: 1}); err != nil {
		t.Fatal(err)
	}
	firstFlush := make(chan error, 1)
	go func() { firstFlush <- in.Flush() }()
	<-sink.entered // the first batch is in the sink: the rest arrive during the call
	const events = 10
	for i := 2; i <= events; i++ {
		if err := in.Ingest(roadnet.ArcWeightChange{From: a.From, To: a.To, NewCost: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := in.Flush(); err != nil {
		t.Fatal(err)
	}
	if sink.inCall.Load() {
		t.Fatal("Flush returned while the sink was still publishing")
	}
	if err := <-firstFlush; err != nil {
		t.Fatal(err)
	}
	if n := sink.numBatches(); n > 2 {
		t.Errorf("batches = %d for %d events on one arc ingested during one blocked call, want at most 2", n, events)
	}
	if got, _ := sink.graph().ArcCost(a.From, a.To); got != events {
		t.Errorf("arc cost after Flush = %v, want the last write %d", got, events)
	}
	if st := in.Stats(); st.Batches != int64(sink.numBatches()) || st.ApplyFailures != 0 {
		t.Errorf("stats %+v after %d sink batches", st, sink.numBatches())
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
	in, err := NewIngestor(sink, Config{MaxBatch: 32, MaxDelay: time.Hour, Topology: g})
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
