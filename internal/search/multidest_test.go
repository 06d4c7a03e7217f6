package search

import (
	"math"
	"slices"
	"sync"
	"testing"

	"opaque/internal/gen"
	"opaque/internal/roadnet"
	"opaque/internal/storage"
)

func TestSSMDMatchesIndividualDijkstra(t *testing.T) {
	g := mediumGraph(t)
	acc := storage.NewMemoryGraph(g)
	pairs := gen.MustGenerateWorkload(g, gen.WorkloadConfig{Kind: gen.Uniform, Queries: 10, Seed: 9})
	for _, pr := range pairs {
		dests := []roadnet.NodeID{pr.Dest, (pr.Dest + 17) % roadnet.NodeID(g.NumNodes()), (pr.Dest + 91) % roadnet.NodeID(g.NumNodes())}
		res, err := SSMD(acc, pr.Source, dests)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Paths) != len(dests) {
			t.Fatalf("got %d paths, want %d", len(res.Paths), len(dests))
		}
		for i, d := range dests {
			ref, _, err := Dijkstra(acc, pr.Source, d)
			if err != nil {
				t.Fatal(err)
			}
			got := res.Paths[i]
			if ref.Empty() != got.Empty() {
				t.Fatalf("reachability mismatch for %d->%d", pr.Source, d)
			}
			if !ref.Empty() && math.Abs(ref.Cost-got.Cost) > 1e-6 {
				t.Fatalf("SSMD cost %v != Dijkstra cost %v for %d->%d", got.Cost, ref.Cost, pr.Source, d)
			}
			if err := got.Validate(g); err != nil {
				t.Errorf("SSMD path invalid: %v", err)
			}
		}
	}
}

func TestSSMDDuplicateAndSelfDestinations(t *testing.T) {
	g := lineGraph(t)
	acc := storage.NewMemoryGraph(g)
	res, err := SSMD(acc, 0, []roadnet.NodeID{3, 3, 0})
	if err != nil {
		t.Fatal(err)
	}
	if res.Paths[0].Cost != res.Paths[1].Cost {
		t.Error("duplicate destinations should receive identical paths")
	}
	if res.Paths[2].Cost != 0 || len(res.Paths[2].Nodes) != 1 {
		t.Errorf("self destination path = %+v, want zero-cost single node", res.Paths[2])
	}
	if res.Paths[0].Cost != 3 {
		t.Errorf("path to 3 = %+v, want cost 3", res.Paths[0])
	}
}

func TestSSMDErrors(t *testing.T) {
	acc := storage.NewMemoryGraph(lineGraph(t))
	if _, err := SSMD(acc, 0, nil); err == nil {
		t.Error("SSMD with no destinations accepted")
	}
	if _, err := SSMD(acc, 99, []roadnet.NodeID{1}); err == nil {
		t.Error("SSMD with invalid source accepted")
	}
	if _, err := SSMD(acc, 0, []roadnet.NodeID{99}); err == nil {
		t.Error("SSMD with invalid destination accepted")
	}
}

// TestSSMDSharingCheaperThanPairwise verifies the Section III-B claim the
// design rests on: one spanning tree to nearby destinations costs much less
// than one Dijkstra per destination.
func TestSSMDSharingCheaperThanPairwise(t *testing.T) {
	g := mediumGraph(t)
	acc := storage.NewMemoryGraph(g)
	pairs := gen.MustGenerateWorkload(g, gen.WorkloadConfig{Kind: gen.Uniform, Queries: 10, Seed: 11})
	var ssmdTotal, pairwiseTotal int
	for _, pr := range pairs {
		// Destinations clustered around the true one.
		tn := g.Node(pr.Dest)
		near := g.NodesWithin(tn.X, tn.Y, 10000)
		dests := []roadnet.NodeID{pr.Dest}
		for _, id := range near {
			if id != pr.Dest && len(dests) < 6 {
				dests = append(dests, id)
			}
		}
		res, err := SSMD(acc, pr.Source, dests)
		if err != nil {
			t.Fatal(err)
		}
		ssmdTotal += res.Stats.SettledNodes
		for _, d := range dests {
			_, st, err := Dijkstra(acc, pr.Source, d)
			if err != nil {
				t.Fatal(err)
			}
			pairwiseTotal += st.SettledNodes
		}
	}
	if ssmdTotal*2 >= pairwiseTotal {
		t.Errorf("SSMD settled %d nodes, pairwise %d — expected SSMD to be at least 2x cheaper for clustered destinations", ssmdTotal, pairwiseTotal)
	}
}

func TestSSMDDistances(t *testing.T) {
	g := lineGraph(t)
	acc := storage.NewMemoryGraph(g)
	dests := []roadnet.NodeID{1, 4, 0}
	res, err := SSMD(acc, 0, dests)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 4, 0}
	for i, p := range res.Paths {
		d := p.Cost
		if p.Empty() && dests[i] != 0 {
			d = math.Inf(1)
		}
		if d != want[i] {
			t.Errorf("distance[%d] = %v, want %v", i, d, want[i])
		}
	}
}

func TestProcessorStrategiesAgree(t *testing.T) {
	g := mediumGraph(t)
	acc := storage.NewMemoryGraph(g)
	sources := []roadnet.NodeID{5, 105, 305}
	dests := []roadnet.NodeID{77, 301, 512, 640}

	results := map[Strategy]Table{}
	for _, strat := range []Strategy{StrategySSMD, StrategyPairwise} {
		proc := NewProcessor(acc, WithStrategy(strat))
		res, err := proc.Evaluate(sources, dests)
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		if len(res.Dist) != len(sources)*len(dests) {
			t.Fatalf("%s produced %d candidates, want %d", strat, len(res.Dist), len(sources)*len(dests))
		}
		results[strat] = res
	}
	base := results[StrategySSMD]
	for c, b := range results[StrategyPairwise].Dist {
		a := base.Dist[c]
		if math.IsInf(a, 1) != math.IsInf(b, 1) {
			t.Fatalf("pairwise reachability differs for (%d,%d)", sources[c/len(dests)], dests[c%len(dests)])
		}
		if !math.IsInf(a, 1) && math.Abs(a-b) > 1e-6 {
			t.Fatalf("pairwise cost %v != SSMD cost %v for (%d,%d)", b, a, sources[c/len(dests)], dests[c%len(dests)])
		}
	}
	// The sharing strategy must do less work than pairwise Dijkstra.
	if results[StrategySSMD].Stats.SettledNodes >= results[StrategyPairwise].Stats.SettledNodes {
		t.Errorf("SSMD settled %d nodes, pairwise %d — sharing should be cheaper",
			results[StrategySSMD].Stats.SettledNodes, results[StrategyPairwise].Stats.SettledNodes)
	}
}

// TestProcessorConcurrentWorkersMatchSequential runs the concurrency the
// server has: many goroutines share one Processor, under a Gate narrower than
// their number and over one tree cache whose trees they grow and reuse
// concurrently. Every table must equal the sequential, cache-free one: the
// same distances and the same paths.
func TestProcessorConcurrentWorkersMatchSequential(t *testing.T) {
	g := mediumGraph(t)
	acc := storage.NewMemoryGraph(g)
	queries := []struct{ sources, dests []roadnet.NodeID }{
		{[]roadnet.NodeID{3, 33, 333, 603}, []roadnet.NodeID{10, 20, 30}},
		{[]roadnet.NodeID{33, 603, 120}, []roadnet.NodeID{640, 20, 415, 3}},
		{[]roadnet.NodeID{333, 3}, []roadnet.NodeID{650, 10}},
	}
	want := make([]Table, len(queries))
	for i, q := range queries {
		var err error
		if want[i], err = NewProcessor(acc).Evaluate(q.sources, q.dests); err != nil {
			t.Fatal(err)
		}
	}

	shared := NewProcessor(acc, WithGate(NewGate(2)), WithTreeCache(NewTreeCacheWithPool(8, nil)))
	const workers = 4
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 6; round++ {
				i := (wk + round) % len(queries)
				got, err := shared.Evaluate(queries[i].sources, queries[i].dests)
				if err != nil {
					t.Error(err)
					return
				}
				if !slices.Equal(got.Dist, want[i].Dist) || !slices.Equal(got.Ends, want[i].Ends) ||
					!slices.Equal(got.Nodes, want[i].Nodes) {
					t.Errorf("worker %d round %d: query %d differs from the sequential table", wk, round, i)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestProcessorErrors(t *testing.T) {
	acc := storage.NewMemoryGraph(lineGraph(t))
	proc := NewProcessor(acc)
	if _, err := proc.Evaluate(nil, []roadnet.NodeID{1}); err == nil {
		t.Error("empty source set accepted")
	}
	if _, err := proc.Evaluate([]roadnet.NodeID{0}, nil); err == nil {
		t.Error("empty destination set accepted")
	}
	if _, err := proc.Evaluate([]roadnet.NodeID{99}, []roadnet.NodeID{1}); err == nil {
		t.Error("invalid source accepted")
	}
	if _, err := proc.Evaluate([]roadnet.NodeID{0}, []roadnet.NodeID{99}); err == nil {
		t.Error("invalid destination accepted")
	}
	bad := NewProcessor(acc, WithStrategy("nonsense"))
	if _, err := bad.Evaluate([]roadnet.NodeID{0}, []roadnet.NodeID{1}); err == nil {
		t.Error("unknown strategy accepted")
	}
}
