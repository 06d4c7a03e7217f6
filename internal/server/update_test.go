package server

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"

	"opaque/internal/ch"
	"opaque/internal/protocol"
	"opaque/internal/roadnet"
	"opaque/internal/search"
	"opaque/internal/storage"
)

// updateTestGraph builds a small connected integer-cost graph.
func updateTestGraph(t *testing.T, n int, seed int64) *roadnet.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := roadnet.NewGraph(n, 4*n)
	for i := 0; i < n; i++ {
		g.AddNode(rng.Float64()*100, rng.Float64()*100)
	}
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		g.MustAddBidirectionalEdge(roadnet.NodeID(perm[i-1]), roadnet.NodeID(perm[i]), float64(1+rng.Intn(20)))
	}
	for i := 0; i < 2*n; i++ {
		g.MustAddEdge(roadnet.NodeID(rng.Intn(n)), roadnet.NodeID(rng.Intn(n)), float64(1+rng.Intn(20)))
	}
	g.Freeze()
	return g
}

// referenceDistance computes the current-graph distance with the reference
// Dijkstra, +Inf when unreachable.
func referenceDistance(t *testing.T, g *roadnet.Graph, s, d roadnet.NodeID) float64 {
	t.Helper()
	p, _, err := search.ReferenceDijkstra(storage.NewMemoryGraph(g), s, d)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Nodes) == 0 && s != d {
		return math.Inf(1)
	}
	return p.Cost
}

// doubleOneArc returns a weight change doubling the first arc of node 0.
func doubleOneArc(t *testing.T, g *roadnet.Graph) roadnet.ArcWeightChange {
	t.Helper()
	arcs := g.Arcs(0)
	if len(arcs) == 0 {
		t.Fatal("node 0 has no arcs")
	}
	return roadnet.ArcWeightChange{From: 0, To: arcs[0].To, NewCost: arcs[0].Cost*2 + 1}
}

// checkReplyMatchesGraph asserts every candidate distance of the reply
// equals the reference distance on g.
func checkReplyMatchesGraph(t *testing.T, g *roadnet.Graph, reply protocol.ServerReply) {
	t.Helper()
	for _, cand := range reply.Paths {
		want := referenceDistance(t, g, cand.Source, cand.Dest)
		got := cand.Cost
		if len(cand.Nodes) == 0 && cand.Source != cand.Dest {
			got = math.Inf(1)
		}
		if got != want {
			t.Fatalf("pair (%d,%d): served %v, current graph says %v", cand.Source, cand.Dest, got, want)
		}
	}
}

// TestApplyWeightsServesPreviousEpochUntilPublished pins the epoch contract
// on a hybrid server: applyWeights moves the graph but publishes nothing, so a
// point query and a wide query keep routing onto the overlay — never the SSMD
// fallback — and answer exactly on the previous snapshot, stamped with its
// ContentSum. RecustomizeNow publishes the new epoch and both follow it.
func TestApplyWeightsServesPreviousEpochUntilPublished(t *testing.T) {
	g := updateTestGraph(t, 70, 510)
	cfg := DefaultConfig()
	cfg.Strategy = StrategyHybrid
	cfg.BuildCH = true
	s := MustNew(g, cfg)
	// Make the first arc of node 0 far cheaper than any integer cost, so the
	// queried pair (0, to) changes distance with the update.
	to := g.Arcs(0)[0].To
	if to == 0 {
		t.Fatal("test setup: node 0's first arc is a self-loop")
	}
	point := protocol.ServerQuery{Sources: []roadnet.NodeID{0}, Dests: []roadnet.NodeID{to, 9}}
	wide := protocol.ServerQuery{Sources: []roadnet.NodeID{0, 2, 7}, Dests: []roadnet.NodeID{to, 9}}

	if _, err := s.applyWeights([]roadnet.ArcWeightChange{{From: 0, To: to, NewCost: 0.25}}); err != nil {
		t.Fatal(err)
	}
	cur := s.Graph()
	if referenceDistance(t, g, 0, to) == referenceDistance(t, cur, 0, to) {
		t.Fatal("test setup: the update does not move the queried distance")
	}
	if s.OverlayFresh() {
		t.Fatal("applyWeights published the epoch")
	}
	check := func(want *roadnet.Graph, wantMTM int64) {
		t.Helper()
		for _, q := range []protocol.ServerQuery{point, wide} {
			reply, err := s.Evaluate(q)
			if err != nil {
				t.Fatal(err)
			}
			if reply.ContentSum != want.ContentChecksum() {
				t.Fatalf("reply ContentSum %x, want %x", reply.ContentSum, want.ContentChecksum())
			}
			checkReplyMatchesGraph(t, want, reply)
		}
		m := s.Metrics()
		if got := m.Counter("fallback_queries"); got != 0 {
			t.Fatalf("fallback_queries = %d, want 0", got)
		}
		if got := m.Counter("mtm_queries"); got != wantMTM {
			t.Fatalf("mtm_queries = %d, want %d", got, wantMTM)
		}
	}
	check(g, 2)
	if err := s.RecustomizeNow(); err != nil {
		t.Fatal(err)
	}
	if !s.OverlayFresh() {
		t.Fatal("RecustomizeNow did not publish the applied generation")
	}
	check(cur, 4)
}

// TestUpdateRecustomizeRestoresOverlay: with a customizable overlay, every
// weight update publishes a re-customized overlay, and point-ish and wide
// queries alike serve current-graph distances on it.
func TestUpdateRecustomizeRestoresOverlay(t *testing.T) {
	g := updateTestGraph(t, 70, 502)
	cfg := DefaultConfig()
	cfg.Strategy = StrategyHybrid
	cfg.BuildCH = true
	s := MustNew(g, cfg)
	oldOverlay := s.Overlay()
	queries := []protocol.ServerQuery{
		{Sources: []roadnet.NodeID{1, 2, 7}, Dests: []roadnet.NodeID{3, 9}},
		{Sources: []roadnet.NodeID{1}, Dests: []roadnet.NodeID{3, 9}},
	}

	rng := rand.New(rand.NewSource(503))
	for round := 0; round < 3; round++ {
		cur := s.Graph()
		var changes []roadnet.ArcWeightChange
		for i := 0; i < 5; i++ {
			v := roadnet.NodeID(rng.Intn(cur.NumNodes()))
			arcs := cur.Arcs(v)
			if len(arcs) == 0 {
				continue
			}
			a := arcs[rng.Intn(len(arcs))]
			changes = append(changes, roadnet.ArcWeightChange{From: v, To: a.To, NewCost: float64(1 + rng.Intn(40))})
		}
		if _, err := s.UpdateWeights(changes); err != nil {
			t.Fatal(err)
		}
		if err := s.RecustomizeNow(); err != nil {
			t.Fatalf("RecustomizeNow: %v", err)
		}
		if s.Overlay() == oldOverlay {
			t.Fatal("re-customization did not swap the overlay")
		}
		oldOverlay = s.Overlay()
		if err := s.Overlay().Matches(s.Graph()); err != nil {
			t.Fatalf("refreshed overlay does not match current graph: %v", err)
		}
		for _, q := range queries {
			reply, err := s.Evaluate(q)
			if err != nil {
				t.Fatal(err)
			}
			checkReplyMatchesGraph(t, s.Graph(), reply)
		}
	}
	m := s.Metrics()
	if got := m.Counter("recustomize_runs"); got < 3 {
		t.Fatalf("recustomize_runs = %d, want >= 3", got)
	}
	// After each explicit RecustomizeNow, queries must route onto the
	// overlay again, not the fallback — point-ish and wide alike.
	if mtm, fallback := m.Counter("mtm_queries"), m.Counter("fallback_queries"); mtm < 6 || fallback != 0 {
		t.Fatalf("overlay routing did not resume after refresh (mtm = %d, fallback = %d)", mtm, fallback)
	}
}

// TestLoadedOverlayFirstRefreshIsArcLevel: an overlay installed from its
// OCH1 file carries no base costs, but server.New matches it against the
// graph, which records them — so the first weight update already re-derives
// a handful of arcs, not the whole arena.
func TestLoadedOverlayFirstRefreshIsArcLevel(t *testing.T) {
	g := gridTestGraph(t, 12, 10, 605)
	part, err := roadnet.BuildPartition(g, roadnet.PartitionConfig{Cells: 6})
	if err != nil {
		t.Fatal(err)
	}
	built, err := ch.BuildCustomizablePartitioned(g, part)
	if err != nil {
		t.Fatal(err)
	}
	var file bytes.Buffer
	if err := ch.Write(built, &file); err != nil {
		t.Fatal(err)
	}
	loaded, err := ch.Read(&file)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Strategy = StrategyHybrid
	cfg.CHOverlay = loaded
	s := MustNew(g, cfg)
	if _, err := s.UpdateWeights([]roadnet.ArcWeightChange{doubleOneArc(t, g)}); err != nil {
		t.Fatal(err)
	}
	if err := s.RecustomizeNow(); err != nil {
		t.Fatal(err)
	}
	arcs := int(s.Metrics().Gauge("recustomize_arcs_last"))
	total := loaded.NumOriginalArcs() + loaded.NumShortcuts()
	if arcs < 1 || arcs >= total/4 {
		t.Fatalf("first refresh of a loaded overlay re-derived %d of %d arcs", arcs, total)
	}
	reply, err := s.Evaluate(protocol.ServerQuery{Sources: []roadnet.NodeID{0, 5}, Dests: []roadnet.NodeID{119, 60}})
	if err != nil {
		t.Fatal(err)
	}
	checkReplyMatchesGraph(t, s.Graph(), reply)
}

// TestNoOpUpdateRebindsEngines: an update that bumps the generation without
// changing any cost (a no-op change, or a revert restoring the exact old
// weights) must not strand the overlay behind the generation check — the
// publication reuses the overlay with engines bound to the new generation
// instead of re-customizing, and overlay routing resumes.
func TestNoOpUpdateRebindsEngines(t *testing.T) {
	g := updateTestGraph(t, 50, 509)
	cfg := DefaultConfig()
	cfg.Strategy = StrategyHybrid
	cfg.BuildCH = true
	s := MustNew(g, cfg)
	q := protocol.ServerQuery{Sources: []roadnet.NodeID{1}, Dests: []roadnet.NodeID{2}}
	wide := protocol.ServerQuery{Sources: []roadnet.NodeID{1, 4, 5}, Dests: []roadnet.NodeID{2, 6}}
	if _, err := s.Evaluate(q); err != nil {
		t.Fatal(err)
	}
	// First update normalises every parallel 0→to arc to one cost (a real
	// content change, absorbed by a re-customization); the second repeats it
	// verbatim — a pure generation bump with identical content.
	noop := roadnet.ArcWeightChange{From: 0, To: g.Arcs(0)[0].To, NewCost: 7}
	if _, err := s.UpdateWeights([]roadnet.ArcWeightChange{noop}); err != nil {
		t.Fatal(err)
	}
	if err := s.RecustomizeNow(); err != nil {
		t.Fatal(err)
	}
	overlayBefore := s.Overlay()
	if _, err := s.UpdateWeights([]roadnet.ArcWeightChange{noop}); err != nil {
		t.Fatal(err)
	}
	if err := s.RecustomizeNow(); err != nil {
		t.Fatal(err)
	}
	before := s.Metrics().Counter("mtm_queries")
	for i := 0; i < 3; i++ {
		for _, query := range []protocol.ServerQuery{q, wide} {
			reply, err := s.Evaluate(query)
			if err != nil {
				t.Fatal(err)
			}
			checkReplyMatchesGraph(t, s.Graph(), reply)
		}
	}
	if got := s.Metrics().Counter("mtm_queries"); got != before+6 {
		t.Fatalf("MTM routing did not resume after a no-op update: mtm_queries went %d → %d", before, got)
	}
	if s.Overlay() != overlayBefore {
		t.Fatal("no-op update triggered a full re-customization instead of a rebind")
	}
}

// TestUpdateWeightsRejected pins the refusal path: invalid changes do not
// move the generation.
func TestUpdateWeightsRejected(t *testing.T) {
	g := updateTestGraph(t, 40, 504)

	t.Run("negative_weight", func(t *testing.T) {
		s := MustNew(g, DefaultConfig())
		if _, err := s.UpdateWeights([]roadnet.ArcWeightChange{{From: 0, To: 0, NewCost: -1}}); err == nil {
			t.Fatal("negative weight accepted")
		}
		if gen := s.Metrics().Gauge("graph_generation"); gen != 0 {
			t.Fatalf("failed update moved the generation to %v", gen)
		}
	})
}

// TestConcurrentUpdatesAndBatches is the -race consistency test: batches
// evaluate while weight updates land concurrently, and every returned table
// must be exact on the graph its reply's ContentSum names — one epoch, never
// a mix. With updates flipping a single arc between two costs, that is one of
// the two reference tables computed up front.
func TestConcurrentUpdatesAndBatches(t *testing.T) {
	g := updateTestGraph(t, 50, 505)
	cfg := DefaultConfig()
	cfg.Strategy = StrategyHybrid
	cfg.BuildCH = true
	cfg.TreeCache = 16
	cfg.KeepLog = false
	s := MustNew(g, cfg)

	// The updater flips one arc between two fixed costs, so after the first
	// (synchronous) update the served graph content is always exactly one of
	// two states — a change overwrites every parallel arc of the pair with
	// the same value, making the flip content-deterministic.
	to := g.Arcs(0)[0].To
	changeA := roadnet.ArcWeightChange{From: 0, To: to, NewCost: 3}
	changeB := roadnet.ArcWeightChange{From: 0, To: to, NewCost: 29}
	gOld, err := s.Graph().WithUpdatedWeights([]roadnet.ArcWeightChange{changeA})
	if err != nil {
		t.Fatal(err)
	}
	gNew, err := gOld.WithUpdatedWeights([]roadnet.ArcWeightChange{changeB})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.UpdateWeights([]roadnet.ArcWeightChange{changeA}); err != nil {
		t.Fatal(err)
	}

	queries := make([]protocol.ServerQuery, 12)
	rng := rand.New(rand.NewSource(506))
	for i := range queries {
		ns, nt := 1+rng.Intn(3), 1+rng.Intn(3)
		q := protocol.ServerQuery{QueryID: uint64(i + 1)}
		for j := 0; j < ns; j++ {
			q.Sources = append(q.Sources, roadnet.NodeID(rng.Intn(g.NumNodes())))
		}
		for j := 0; j < nt; j++ {
			q.Dests = append(q.Dests, roadnet.NodeID(rng.Intn(g.NumNodes())))
		}
		queries[i] = q
	}
	// Reference tables for both graphs, keyed by their content checksums and
	// computed before the race.
	if gOld.ContentChecksum() == gNew.ContentChecksum() {
		t.Fatal("test setup: the two graphs share a content checksum")
	}
	type key struct{ s, d roadnet.NodeID }
	refOld := map[key]float64{}
	refNew := map[key]float64{}
	refs := map[uint64]map[key]float64{gOld.ContentChecksum(): refOld, gNew.ContentChecksum(): refNew}
	for _, q := range queries {
		for _, src := range q.Sources {
			for _, dst := range q.Dests {
				refOld[key{src, dst}] = referenceDistance(t, gOld, src, dst)
				refNew[key{src, dst}] = referenceDistance(t, gNew, src, dst)
			}
		}
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		flip := false
		for {
			select {
			case <-stop:
				return
			default:
			}
			c := changeA
			if flip {
				c = changeB
			}
			flip = !flip
			if _, err := s.UpdateWeights([]roadnet.ArcWeightChange{c}); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	for round := 0; round < 8; round++ {
		results := s.EvaluateBatch(queries)
		for i, r := range results {
			if r.Err != nil {
				t.Fatalf("round %d query %d: %v", round, i, r.Err)
			}
			ref, ok := refs[r.Reply.ContentSum]
			if !ok {
				t.Fatalf("round %d query %d: ContentSum %x names neither graph", round, i, r.Reply.ContentSum)
			}
			for _, cand := range r.Reply.Paths {
				got := cand.Cost
				if len(cand.Nodes) == 0 && cand.Source != cand.Dest {
					got = math.Inf(1)
				}
				if want := ref[key{cand.Source, cand.Dest}]; got != want {
					t.Fatalf("round %d query %d: pair (%d,%d) served %v, the graph its ContentSum names says %v", round, i, cand.Source, cand.Dest, got, want)
				}
			}
		}
	}
	close(stop)
	wg.Wait()
	if err := s.RecustomizeNow(); err != nil {
		t.Fatal(err)
	}
	if err := s.Overlay().Matches(s.Graph()); err != nil {
		t.Fatalf("overlay not fresh after quiescence: %v", err)
	}
}

// TestEmptyQueryContract pins the unified empty-S/T contract across both
// serving strategies — with a non-empty side of one node or of several — and
// every processor and engine entry point: an error wrapping
// search.ErrEmptyQuery, never a silent empty table.
func TestEmptyQueryContract(t *testing.T) {
	g := updateTestGraph(t, 30, 507)
	wide := []roadnet.NodeID{1, 2, 3, 4, 5, 6}
	for _, strat := range []search.Strategy{search.StrategySSMD, StrategyHybrid} {
		cfg := DefaultConfig()
		cfg.Strategy = strat
		cfg.BuildCH = strat == StrategyHybrid
		s := MustNew(g, cfg)
		for _, q := range []protocol.ServerQuery{
			{Sources: nil, Dests: []roadnet.NodeID{1}},
			{Sources: []roadnet.NodeID{1}, Dests: nil},
			{Sources: nil, Dests: wide},
			{Sources: wide, Dests: nil},
			{},
		} {
			if _, err := s.Evaluate(q); err == nil {
				t.Fatalf("%s: empty query %v accepted", strat, q)
			}
		}
	}

	// Processor and engine level: every processor strategy and both MTM
	// table faces return ErrEmptyQuery; the direct engine surfaces agree.
	acc := storage.NewMemoryGraph(g)
	o, err := ch.BuildCustomizable(g)
	if err != nil {
		t.Fatal(err)
	}
	mtm := ch.NewMTM(o, nil)
	procs := map[string]*search.Processor{
		"ssmd":     search.NewProcessor(acc),
		"pairwise": search.NewProcessor(acc, search.WithStrategy(search.StrategyPairwise)),
	}
	for name, p := range procs {
		if _, err := p.Evaluate(nil, []roadnet.NodeID{1}); !errors.Is(err, search.ErrEmptyQuery) {
			t.Fatalf("%s Evaluate(∅, T): err = %v, want ErrEmptyQuery", name, err)
		}
		if _, err := p.Evaluate([]roadnet.NodeID{1}, nil); !errors.Is(err, search.ErrEmptyQuery) {
			t.Fatalf("%s Evaluate(S, ∅): err = %v, want ErrEmptyQuery", name, err)
		}
	}
	if _, err := mtm.EvaluateTable(acc, nil, []roadnet.NodeID{1}); !errors.Is(err, search.ErrEmptyQuery) {
		t.Fatalf("MTM.EvaluateTable(∅, T): err = %v, want ErrEmptyQuery", err)
	}
	if _, err := mtm.EvaluateDistances(acc, []roadnet.NodeID{1}, nil); !errors.Is(err, search.ErrEmptyQuery) {
		t.Fatalf("MTM.EvaluateDistances(S, ∅): err = %v, want ErrEmptyQuery", err)
	}
	if _, _, err := mtm.Distances(nil, []roadnet.NodeID{1}); !errors.Is(err, search.ErrEmptyQuery) {
		t.Fatalf("MTM.Distances(∅, T): err = %v, want ErrEmptyQuery", err)
	}
	if _, err := mtm.Table([]roadnet.NodeID{1}, nil); !errors.Is(err, search.ErrEmptyQuery) {
		t.Fatalf("MTM.Table(S, ∅): err = %v, want ErrEmptyQuery", err)
	}
	if _, _, err := mtm.DistancesInto(nil, nil, nil); !errors.Is(err, search.ErrEmptyQuery) {
		t.Fatalf("MTM.DistancesInto(∅, ∅): err = %v, want ErrEmptyQuery", err)
	}
}

// TestStaleEngineGenerationContract exercises the many-to-many engine's
// generation binding directly: an engine bound to one generation of a
// versioned accessor refuses with ErrStaleEngine once the accessor moves on —
// a 1×1 path table and a distance-only table alike — and serves again once a
// re-customized engine is bound to the new generation. A verbatim no-op
// update moves the generation but not the content checksum, so only the
// generation half of the binding catches it.
func TestStaleEngineGenerationContract(t *testing.T) {
	g := updateTestGraph(t, 30, 508)
	mg := storage.NewMutableGraph(g)
	o, err := ch.BuildCustomizable(g)
	if err != nil {
		t.Fatal(err)
	}
	mtm := ch.NewMTM(o, nil)

	S, T := []roadnet.NodeID{1}, []roadnet.NodeID{2}
	if _, err := mtm.EvaluateTable(mg.Snapshot(), S, T); err != nil {
		t.Fatalf("fresh engine refused a point query: %v", err)
	}
	if _, err := mtm.EvaluateDistances(mg.Snapshot(), S, T); err != nil {
		t.Fatalf("fresh engine refused: %v", err)
	}

	if _, err := mg.UpdateWeights([]roadnet.ArcWeightChange{doubleOneArc(t, g)}); err != nil {
		t.Fatal(err)
	}
	if _, err := mtm.EvaluateTable(mg.Snapshot(), S, T); !errors.Is(err, search.ErrStaleEngine) {
		t.Fatalf("stale engine, point query: err = %v, want ErrStaleEngine", err)
	}
	if _, err := mtm.EvaluateDistances(mg.Snapshot(), S, T); !errors.Is(err, search.ErrStaleEngine) {
		t.Fatalf("stale engine: err = %v, want ErrStaleEngine", err)
	}

	// Re-customize and re-bind: serving resumes on the new generation.
	rebind := func() *ch.MTM {
		t.Helper()
		fresh, err := o.Recustomize(mg.Snapshot().Graph())
		if err != nil {
			t.Fatal(err)
		}
		m := ch.NewMTM(fresh, nil)
		m.BindGeneration(mg.Generation())
		return m
	}
	mtm = rebind()
	res, err := mtm.EvaluateTable(mg.Snapshot(), S, T)
	if err != nil {
		t.Fatalf("re-bound engine refused: %v", err)
	}
	if want := referenceDistance(t, mg.Snapshot().Graph(), S[0], T[0]); res.Dist[0] != want {
		t.Fatalf("re-bound engine distance %v, want %v", res.Dist[0], want)
	}

	// A verbatim repeat of an applied change: the generation moves, the
	// content checksum does not, and the engine must still refuse.
	noop := roadnet.ArcWeightChange{From: 0, To: g.Arcs(0)[0].To, NewCost: 7}
	if _, err := mg.UpdateWeights([]roadnet.ArcWeightChange{noop}); err != nil {
		t.Fatal(err)
	}
	mtm = rebind()
	sum := mg.Snapshot().Graph().ContentChecksum()
	if _, err := mg.UpdateWeights([]roadnet.ArcWeightChange{noop}); err != nil {
		t.Fatal(err)
	}
	if mg.Snapshot().Graph().ContentChecksum() != sum {
		t.Fatal("a verbatim repeat of an applied change moved the content checksum")
	}
	if _, err := mtm.EvaluateTable(mg.Snapshot(), S, T); !errors.Is(err, search.ErrStaleEngine) {
		t.Fatalf("no-op update, path table: err = %v, want ErrStaleEngine", err)
	}
	if _, err := mtm.EvaluateDistances(mg.Snapshot(), S, T); !errors.Is(err, search.ErrStaleEngine) {
		t.Fatalf("no-op update, distance table: err = %v, want ErrStaleEngine", err)
	}
}
