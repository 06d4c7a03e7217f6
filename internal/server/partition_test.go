package server

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"opaque/internal/ch"
	"opaque/internal/protocol"
	"opaque/internal/roadnet"
)

// gridTestGraph builds a w×h lattice with integer costs. Its spatial
// coherence is what the partition tests need: an inertial cut of a lattice
// has large cell interiors, so arcs exist strictly inside distinct cells.
func gridTestGraph(t *testing.T, w, h int, seed int64) *roadnet.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := roadnet.NewGraph(w*h, 4*w*h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			g.AddNode(float64(x)*100, float64(y)*100)
		}
	}
	id := func(x, y int) roadnet.NodeID { return roadnet.NodeID(y*w + x) }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				g.MustAddBidirectionalEdge(id(x, y), id(x+1, y), float64(1+rng.Intn(9)))
			}
			if y+1 < h {
				g.MustAddBidirectionalEdge(id(x, y), id(x, y+1), float64(1+rng.Intn(9)))
			}
		}
	}
	g.Freeze()
	return g
}

// partitionedConfig cuts g into the given number of cells and returns the
// partition and a hybrid config serving the overlay contracted in its order
// — the order the benchmark's fleet serves.
func partitionedConfig(t *testing.T, g *roadnet.Graph, cells int) (Config, *roadnet.Partition) {
	t.Helper()
	p, err := roadnet.BuildPartition(g, roadnet.PartitionConfig{Cells: cells})
	if err != nil {
		t.Fatal(err)
	}
	o, err := ch.BuildCustomizablePartitioned(g, p)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Strategy = StrategyHybrid
	cfg.CHOverlay = o
	return cfg, p
}

// TestPartitionedServerMatchesReference: a hybrid server over a
// partition-ordered overlay serves reference-Dijkstra distances at every
// table shape, 1×1 included, before and after weight updates absorbed by
// arc-level re-customization, and the metrics report the arcs re-derived.
func TestPartitionedServerMatchesReference(t *testing.T) {
	g := gridTestGraph(t, 12, 10, 601)
	cfg, _ := partitionedConfig(t, g, 6)
	s := MustNew(g, cfg)

	queries := []protocol.ServerQuery{
		{Sources: []roadnet.NodeID{0}, Dests: []roadnet.NodeID{119}},
		{Sources: []roadnet.NodeID{1, 12, 40}, Dests: []roadnet.NodeID{80, 117}},
		{Sources: []roadnet.NodeID{5, 6}, Dests: []roadnet.NodeID{7}},
		{Sources: []roadnet.NodeID{3, 30, 90}, Dests: []roadnet.NodeID{14, 60, 100, 8}},
	}
	for _, q := range queries {
		reply, err := s.Evaluate(q)
		if err != nil {
			t.Fatal(err)
		}
		checkReplyMatchesGraph(t, s.Graph(), reply)
	}

	rng := rand.New(rand.NewSource(602))
	for round := 0; round < 3; round++ {
		cur := s.Graph()
		var changes []roadnet.ArcWeightChange
		for i := 0; i < 4; i++ {
			v := roadnet.NodeID(rng.Intn(cur.NumNodes()))
			arcs := cur.Arcs(v)
			if len(arcs) == 0 {
				continue
			}
			a := arcs[rng.Intn(len(arcs))]
			changes = append(changes, roadnet.ArcWeightChange{From: v, To: a.To, NewCost: float64(1 + rng.Intn(15))})
		}
		if _, err := s.UpdateWeights(changes); err != nil {
			t.Fatal(err)
		}
		if err := s.RecustomizeNow(); err != nil {
			t.Fatal(err)
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
	if m.Counter("mtm_queries") < 16 || m.Counter("fallback_queries") != 0 {
		t.Fatalf("mtm_queries = %d, fallback_queries = %d: the overlay must serve after every refresh", m.Counter("mtm_queries"), m.Counter("fallback_queries"))
	}
	if m.Counter("recustomize_runs") < 3 {
		t.Fatalf("recustomize_runs = %d", m.Counter("recustomize_runs"))
	}
	if m.Gauge("recustomize_arcs_last") < 1 {
		t.Fatalf("recustomize_arcs_last = %v, want >= 1", m.Gauge("recustomize_arcs_last"))
	}
}

// twoCellArcs finds two arcs lying strictly inside two *different* cells of
// p (no boundary endpoints), so the weight flips land in two separately
// contracted parts of the overlay.
func twoCellArcs(t *testing.T, g *roadnet.Graph, p *roadnet.Partition) (a1, a2 roadnet.ArcWeightChange, c1, c2 int) {
	t.Helper()
	found := map[int]roadnet.ArcWeightChange{}
	order := []int{}
	for v := 0; v < g.NumNodes(); v++ {
		cv := p.CellOf(roadnet.NodeID(v))
		if p.IsBoundary(roadnet.NodeID(v)) {
			continue
		}
		if _, ok := found[cv]; ok {
			continue
		}
		for _, a := range g.Arcs(roadnet.NodeID(v)) {
			if p.IsBoundary(a.To) || p.CellOf(a.To) != cv || a.To == roadnet.NodeID(v) {
				continue
			}
			found[cv] = roadnet.ArcWeightChange{From: roadnet.NodeID(v), To: a.To}
			order = append(order, cv)
			break
		}
		if len(order) == 2 {
			return found[order[0]], found[order[1]], order[0], order[1]
		}
	}
	t.Fatal("partition yielded fewer than two cells with interior arcs")
	return
}

// TestConcurrentUpdatesAndBatchesTwoCells extends the two-known-costs flip
// of TestConcurrentUpdatesAndBatches to two arcs in two different partition
// cells, flipped by two concurrent updaters while batches evaluate under
// -race. The served content is always one of four states (two costs per
// arc), and every returned table must match exactly one of the four
// reference tables — all cells of one snapshot, never a mixed-metric table,
// even while back-to-back re-customizations swap overlays underneath.
func TestConcurrentUpdatesAndBatchesTwoCells(t *testing.T) {
	g := gridTestGraph(t, 12, 10, 603)
	cfg, p := partitionedConfig(t, g, 6)
	cfg.TreeCache = 16
	cfg.KeepLog = false
	s := MustNew(g, cfg)

	arc1, arc2, c1, c2 := twoCellArcs(t, g, p)
	if c1 == c2 {
		t.Fatalf("both flip arcs landed in cell %d", c1)
	}
	flips1 := [2]roadnet.ArcWeightChange{
		{From: arc1.From, To: arc1.To, NewCost: 3},
		{From: arc1.From, To: arc1.To, NewCost: 29},
	}
	flips2 := [2]roadnet.ArcWeightChange{
		{From: arc2.From, To: arc2.To, NewCost: 5},
		{From: arc2.From, To: arc2.To, NewCost: 31},
	}
	// Pin the initial state deterministically: both arcs at their first cost.
	if _, err := s.UpdateWeights([]roadnet.ArcWeightChange{flips1[0], flips2[0]}); err != nil {
		t.Fatal(err)
	}

	// The four reachable graph contents, as copy-on-write variants.
	var refGraphs [2][2]*roadnet.Graph
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			gg, err := s.Graph().WithUpdatedWeights([]roadnet.ArcWeightChange{flips1[i], flips2[j]})
			if err != nil {
				t.Fatal(err)
			}
			refGraphs[i][j] = gg
		}
	}

	queries := make([]protocol.ServerQuery, 10)
	rng := rand.New(rand.NewSource(604))
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
	type key struct{ s, d roadnet.NodeID }
	var refs [2][2]map[key]float64
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			refs[i][j] = map[key]float64{}
			for _, q := range queries {
				for _, src := range q.Sources {
					for _, dst := range q.Dests {
						refs[i][j][key{src, dst}] = referenceDistance(t, refGraphs[i][j], src, dst)
					}
				}
			}
		}
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for u, flips := range [][2]roadnet.ArcWeightChange{flips1, flips2} {
		wg.Add(1)
		go func(u int, flips [2]roadnet.ArcWeightChange) {
			defer wg.Done()
			next := 1
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := s.UpdateWeights([]roadnet.ArcWeightChange{flips[next]}); err != nil {
					t.Error(err)
					return
				}
				next = 1 - next
			}
		}(u, flips)
	}

	for round := 0; round < 6; round++ {
		results := s.EvaluateBatch(queries)
		for i, r := range results {
			if r.Err != nil {
				t.Fatalf("round %d query %d: %v", round, i, r.Err)
			}
			matched := false
			for vi := 0; vi < 2 && !matched; vi++ {
				for vj := 0; vj < 2 && !matched; vj++ {
					ok := true
					for _, cand := range r.Reply.Paths {
						got := cand.Cost
						if len(cand.Nodes) == 0 && cand.Source != cand.Dest {
							got = math.Inf(1)
						}
						if got != refs[vi][vj][key{cand.Source, cand.Dest}] {
							ok = false
							break
						}
					}
					matched = ok
				}
			}
			if !matched {
				t.Fatalf("round %d query %d: table matches none of the four reachable generations (mixed-metric table)", round, i)
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
