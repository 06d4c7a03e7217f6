package search

import (
	"math"
	"testing"

	"opaque/internal/roadnet"
	"opaque/internal/storage"
)

// stubTableEngine is a TableEngine that answers from per-pair Dijkstra,
// recording which face was called — enough to test the processor wiring
// without importing internal/ch (which would invert the dependency).
type stubTableEngine struct {
	tableCalls, distCalls int
}

func (e *stubTableEngine) evaluate(acc storage.Accessor, sources, dests []roadnet.NodeID, needPaths bool) (Table, error) {
	res := NewTable(sources, dests)
	for _, s := range sources {
		for _, d := range dests {
			p, st, err := Dijkstra(acc, s, d)
			if err != nil {
				return Table{}, err
			}
			res.Stats = res.Stats.Add(st)
			res.appendPath(p, s, d)
		}
	}
	if !needPaths {
		res.Nodes, res.Ends = nil, nil
	}
	return res, nil
}

func (e *stubTableEngine) EvaluateTable(acc storage.Accessor, sources, dests []roadnet.NodeID) (Table, error) {
	e.tableCalls++
	return e.evaluate(acc, sources, dests, true)
}

func (e *stubTableEngine) EvaluateDistances(acc storage.Accessor, sources, dests []roadnet.NodeID) (Table, error) {
	e.distCalls++
	return e.evaluate(acc, sources, dests, false)
}

// TestStrategyTableEngine exercises the table-engine strategy end to end:
// Evaluate routes to EvaluateTable, EvaluateDistances to the distance-only
// face, results match SSMD, and the strategy without an engine is rejected.
func TestStrategyTableEngine(t *testing.T) {
	acc := storage.NewMemoryGraph(mediumGraph(t))
	eng := &stubTableEngine{}
	proc := NewProcessor(acc, WithStrategy(StrategyTableEngine), WithTableEngine(eng))
	ssmd := NewProcessor(acc)

	sources := []roadnet.NodeID{0, 5}
	dests := []roadnet.NodeID{10, 20, 0}
	got, err := proc.Evaluate(sources, dests)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ssmd.Evaluate(sources, dests)
	if err != nil {
		t.Fatal(err)
	}
	if eng.tableCalls != 1 || eng.distCalls != 0 {
		t.Fatalf("Evaluate called (table=%d, dist=%d), want (1, 0)", eng.tableCalls, eng.distCalls)
	}
	if !got.HasPaths() {
		t.Fatal("Evaluate result has no paths")
	}
	for i := range sources {
		for j := range dests {
			if got.Dists[i][j] != want.Dists[i][j] {
				t.Fatalf("cell (%d,%d): table engine %v, SSMD %v", i, j, got.Dists[i][j], want.Dists[i][j])
			}
		}
	}

	dist, err := proc.EvaluateDistances(sources, dests)
	if err != nil {
		t.Fatal(err)
	}
	if eng.distCalls != 1 {
		t.Fatalf("EvaluateDistances did not hit the distance-only face (dist=%d)", eng.distCalls)
	}
	if dist.HasPaths() {
		t.Fatal("distance-only result carries paths")
	}
	if d, ok := dist.Distance(sources[0], dests[0]); !ok || d != want.Dists[0][0] {
		t.Fatalf("Distance accessor = %v, %v; want %v", d, ok, want.Dists[0][0])
	}
	if _, ok := dist.Path(sources[0], dests[0]); ok {
		t.Fatal("Path accessor claims a path on a distance-only result")
	}

	if _, err := NewProcessor(acc, WithStrategy(StrategyTableEngine)).Evaluate(sources, dests); err == nil {
		t.Fatal("StrategyTableEngine without WithTableEngine accepted")
	}
	if _, err := proc.Evaluate(nil, dests); err == nil {
		t.Fatal("empty source set accepted")
	}
}

// TestEvaluateFillsDists asserts every ordinary strategy's Evaluate result
// carries the derived distance matrix, +Inf for unreachable cells.
func TestEvaluateFillsDists(t *testing.T) {
	// Two disconnected islands: 0-1 and 2-3.
	g := roadnet.NewGraph(4, 2)
	for i := 0; i < 4; i++ {
		g.AddNode(float64(i), 0)
	}
	g.MustAddBidirectionalEdge(0, 1, 5)
	g.MustAddBidirectionalEdge(2, 3, 7)
	g.Freeze()
	acc := storage.NewMemoryGraph(g)
	for _, strat := range []Strategy{StrategySSMD, StrategyPairwise} {
		res, err := NewProcessor(acc, WithStrategy(strat)).Evaluate([]roadnet.NodeID{0}, []roadnet.NodeID{1, 2, 0})
		if err != nil {
			t.Fatal(err)
		}
		if res.Dists == nil {
			t.Fatalf("%s: Evaluate left Dists nil", strat)
		}
		if res.Dists[0][0] != 5 {
			t.Fatalf("%s: d(0,1) = %v, want 5", strat, res.Dists[0][0])
		}
		if !math.IsInf(res.Dists[0][1], 1) {
			t.Fatalf("%s: d(0,2) = %v, want +Inf", strat, res.Dists[0][1])
		}
		if res.Dists[0][2] != 0 {
			t.Fatalf("%s: d(0,0) = %v, want 0", strat, res.Dists[0][2])
		}
	}
}
