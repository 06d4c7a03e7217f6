package search

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"opaque/internal/roadnet"
	"opaque/internal/storage"
)

// overlappingQueries builds a workload of (source, dests) queries whose source
// and destination sets overlap heavily, the access pattern shared-mode
// obfuscation produces.
func overlappingQueries(g *roadnet.Graph) []struct {
	source roadnet.NodeID
	dests  []roadnet.NodeID
} {
	n := g.NumNodes()
	pick := func(i int) roadnet.NodeID { return roadnet.NodeID(i % n) }
	var out []struct {
		source roadnet.NodeID
		dests  []roadnet.NodeID
	}
	// Three sources, each queried several times with growing/rotating
	// destination sets; later queries repeat earlier destinations.
	for round := 0; round < 4; round++ {
		for s := 0; s < 3; s++ {
			dests := []roadnet.NodeID{
				pick(100 + 31*round),
				pick(350 + 17*round),
				pick(500 + 13*s),
			}
			out = append(out, struct {
				source roadnet.NodeID
				dests  []roadnet.NodeID
			}{source: pick(7 * s), dests: dests})
		}
	}
	return out
}

// requireRowMatches fails unless row's cells carry exactly want's paths: the
// same node sequences, and each path's cost (+Inf when unreachable) as the
// cell's distance.
func requireRowMatches(t *testing.T, what string, row *Table, want SSMDResult) {
	t.Helper()
	if len(row.Dist) != len(want.Paths) {
		t.Fatalf("%s: %d cells, want %d", what, len(row.Dist), len(want.Paths))
	}
	for i, p := range want.Paths {
		d := p.Cost
		if p.Empty() {
			d = math.Inf(1)
		}
		if row.Dist[i] != d || !slices.Equal(row.Path(i), p.Nodes) {
			t.Fatalf("%s dest %d: got %v via %v, want %v via %v", what, i, row.Dist[i], row.Path(i), d, p.Nodes)
		}
	}
}

// TestTreeCacheMatchesColdSSMD is the cache-correctness contract: every
// cached (hit, resumed, or cold) evaluation must return exactly the paths a
// cold SSMD run returns.
func TestTreeCacheMatchesColdSSMD(t *testing.T) {
	g := mediumGraph(t)
	acc := storage.NewMemoryGraph(g)
	cache := NewTreeCacheWithPool(8, nil)

	for i, q := range overlappingQueries(g) {
		row := NewTable(nil, q.dests)
		if _, err := cache.AppendPaths(acc, q.source, q.dests, &row); err != nil {
			t.Fatalf("query %d: cache.AppendPaths: %v", i, err)
		}
		want, err := SSMD(acc, q.source, q.dests)
		if err != nil {
			t.Fatalf("query %d: cold SSMD: %v", i, err)
		}
		requireRowMatches(t, fmt.Sprintf("query %d", i), &row, want)
	}

	st := cache.Stats()
	if st.Misses != 3 {
		t.Errorf("misses = %d, want 3 (one cold build per distinct source)", st.Misses)
	}
	if st.Hits == 0 {
		t.Error("no cache hits on a workload that repeats its sources")
	}
	if st.HitRatio() <= 0.5 {
		t.Errorf("hit ratio = %v, want > 0.5 on 12 queries over 3 sources", st.HitRatio())
	}
}

// TestTreeCacheRepeatIsFree asserts a full hit performs no incremental search
// work: repeating an identical query settles zero additional nodes.
func TestTreeCacheRepeatIsFree(t *testing.T) {
	g := mediumGraph(t)
	acc := storage.NewMemoryGraph(g)
	cache := NewTreeCacheWithPool(4, nil)
	dests := []roadnet.NodeID{300, 420, 555}
	row := NewTable(nil, dests)

	first, err := cache.AppendPaths(acc, 5, dests, &row)
	if err != nil {
		t.Fatal(err)
	}
	if first.SettledNodes == 0 {
		t.Fatal("cold evaluation settled no nodes")
	}
	second, err := cache.AppendPaths(acc, 5, dests, &row)
	if err != nil {
		t.Fatal(err)
	}
	if second.SettledNodes != 0 || second.RelaxedArcs != 0 {
		t.Errorf("repeat evaluation did work: settled=%d relaxed=%d, want 0/0",
			second.SettledNodes, second.RelaxedArcs)
	}
	st := cache.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Resumes != 0 {
		t.Errorf("stats = %+v, want exactly 1 hit, 1 miss, 0 resumes", st)
	}
}

// reweighed applies one weight update to mg — the arcs from `from` to its
// first neighbour cost twice as much — and returns the snapshot of the
// generation it makes.
func reweighed(t *testing.T, mg *storage.MutableGraph, from roadnet.NodeID) *storage.GraphSnapshot {
	t.Helper()
	a := mg.Snapshot().Graph().Arcs(from)[0]
	if _, err := mg.UpdateWeights([]roadnet.ArcWeightChange{{From: from, To: a.To, NewCost: 2 * a.Cost}}); err != nil {
		t.Fatal(err)
	}
	return mg.Snapshot()
}

// TestTreeCacheInvalidation asserts that a weight update's new generation
// makes the cache drop stale trees and rebuild from the current data, still
// matching cold evaluation.
func TestTreeCacheInvalidation(t *testing.T) {
	g := mediumGraph(t)
	mg := storage.NewMutableGraph(g)
	acc := mg.Snapshot()
	cache := NewTreeCacheWithPool(4, nil)
	dests := []roadnet.NodeID{300, 420}

	stale := NewTable(nil, dests)
	if _, err := cache.AppendPaths(acc, 9, dests, &stale); err != nil {
		t.Fatal(err)
	}
	if got := storage.GenerationOf(acc); got != 0 {
		t.Fatalf("fresh accessor generation = %d, want 0", got)
	}
	acc = reweighed(t, mg, 9)
	if got := storage.GenerationOf(acc); got != 1 {
		t.Fatalf("updated accessor generation = %d, want 1", got)
	}

	row := NewTable(nil, dests)
	stats, err := cache.AppendPaths(acc, 9, dests, &row)
	if err != nil {
		t.Fatal(err)
	}
	if stats.SettledNodes == 0 {
		t.Error("evaluation after invalidation did no work; stale tree was reused")
	}
	want, err := SSMD(acc, 9, dests)
	if err != nil {
		t.Fatal(err)
	}
	requireRowMatches(t, "post-invalidation", &row, want)
	st := cache.Stats()
	if st.Invalidations != 1 {
		t.Errorf("invalidations = %d, want 1", st.Invalidations)
	}
	if st.Hits != 0 || st.Misses != 2 {
		t.Errorf("stats = %+v, want 0 hits and 2 misses across the generation change", st)
	}
	if cache.Len() != 1 {
		t.Errorf("cache holds %d trees, want 1 (the stale one must be gone)", cache.Len())
	}
}

// TestTreeCacheEviction asserts the LRU bound holds and evictions are counted.
func TestTreeCacheEviction(t *testing.T) {
	g := mediumGraph(t)
	acc := storage.NewMemoryGraph(g)
	cache := NewTreeCacheWithPool(2, nil)
	dests := []roadnet.NodeID{100}

	for s := roadnet.NodeID(0); s < 5; s++ {
		row := NewTable(nil, dests)
		if _, err := cache.AppendPaths(acc, s, dests, &row); err != nil {
			t.Fatal(err)
		}
	}
	if cache.Len() > 2 {
		t.Errorf("cache holds %d trees, capacity is 2", cache.Len())
	}
	st := cache.Stats()
	if st.Evictions != 3 {
		t.Errorf("evictions = %d, want 3 (5 sources through capacity 2)", st.Evictions)
	}
}

// TestTreeResumeMatchesCold grows one tree incrementally over several
// destination sets and checks every answer against an independent cold SSMD
// run — the resumability contract of Tree.
func TestTreeResumeMatchesCold(t *testing.T) {
	g := mediumGraph(t)
	acc := storage.NewMemoryGraph(g)
	tree, err := newTree(sharedWorkspaces, acc, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Release()

	sets := [][]roadnet.NodeID{
		{50},                // near: small first growth
		{50, 200},           // repeat + extend
		{650, 3},            // far + the source itself
		{50, 200, 650, 600}, // mostly settled already
	}
	for i, dests := range sets {
		row := NewTable(nil, dests)
		if _, err := tree.AppendPaths(dests, &row); err != nil {
			t.Fatalf("set %d: %v", i, err)
		}
		want, err := SSMD(acc, 3, dests)
		if err != nil {
			t.Fatalf("set %d: cold SSMD: %v", i, err)
		}
		requireRowMatches(t, fmt.Sprintf("set %d", i), &row, want)
	}
}
