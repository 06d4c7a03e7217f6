package search

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"opaque/internal/gen"
	"opaque/internal/roadnet"
	"opaque/internal/storage"
)

// testGraph generates a small frozen network for workspace tests.
func testGraph(t testing.TB, nodes int, seed uint64) *roadnet.Graph {
	t.Helper()
	cfg := gen.DefaultNetworkConfig()
	cfg.Nodes = nodes
	cfg.Seed = seed
	g, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestWorkspaceReuseMatchesReference is the workspace-equivalence property
// test: a single pooled workspace reused across a long randomized sequence
// of queries — mixing search kinds, graphs of different sizes (simulating
// graph-generation changes) and duplicate-destination SSMD sets — must
// return byte-identical paths and statistics to the fresh-slice reference
// implementations.
func TestWorkspaceReuseMatchesReference(t *testing.T) {
	graphs := []*roadnet.Graph{
		testGraph(t, 300, 11),
		testGraph(t, 900, 12), // larger: forces workspace growth mid-sequence
		testGraph(t, 150, 13), // smaller again: stale labels must not leak
	}
	accs := make([]storage.Accessor, len(graphs))
	for i, g := range graphs {
		accs[i] = storage.NewMemoryGraph(g)
	}

	r := rand.New(rand.NewSource(99))
	w := NewWorkspace(accs[0].NumNodes())

	for iter := 0; iter < 400; iter++ {
		gi := r.Intn(len(accs))
		acc := accs[gi]
		n := acc.NumNodes()
		s := roadnet.NodeID(r.Intn(n))
		d := roadnet.NodeID(r.Intn(n))
		switch r.Intn(3) {
		case 0:
			got, gotStats, err := w.Dijkstra(acc, s, d)
			want, wantStats, refErr := ReferenceDijkstra(acc, s, d)
			if err != nil || refErr != nil {
				t.Fatalf("iter %d: dijkstra errs %v / %v", iter, err, refErr)
			}
			if !reflect.DeepEqual(got, want) || gotStats != wantStats {
				t.Fatalf("iter %d: Dijkstra(%d,%d) on graph %d diverged:\n got %v %+v\nwant %v %+v",
					iter, s, d, gi, got, gotStats, want, wantStats)
			}
		case 1:
			dests := make([]roadnet.NodeID, 1+r.Intn(6))
			for j := range dests {
				dests[j] = roadnet.NodeID(r.Intn(n))
			}
			if r.Intn(3) == 0 { // duplicates must collapse identically
				dests = append(dests, dests[0])
			}
			got, err := w.SSMD(acc, s, dests)
			want, refErr := ReferenceSSMD(acc, s, dests)
			if err != nil || refErr != nil {
				t.Fatalf("iter %d: ssmd errs %v / %v", iter, err, refErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("iter %d: SSMD(%d,%v) on graph %d diverged:\n got %+v\nwant %+v",
					iter, s, dests, gi, got, want)
			}
		case 2:
			gd, _, err := w.DijkstraDistance(acc, s, d)
			want, wantStats, refErr := ReferenceDijkstra(acc, s, d)
			if err != nil || refErr != nil {
				t.Fatalf("iter %d: distance errs %v / %v", iter, err, refErr)
			}
			_ = wantStats
			if want.Empty() && s != d {
				if !isInf(gd) {
					t.Fatalf("iter %d: DijkstraDistance(%d,%d) = %v, want +Inf", iter, s, d, gd)
				}
			} else if gd != want.Cost {
				t.Fatalf("iter %d: DijkstraDistance(%d,%d) = %v, want %v", iter, s, d, gd, want.Cost)
			}
		}
	}
}

func isInf(v float64) bool { return v > 1e300 }

// TestWorkspacePoolConcurrentReuse hammers one shared pool (and one shared
// accessor) from many goroutines under the race detector, checking every
// result against the fresh-slice reference.
func TestWorkspacePoolConcurrentReuse(t *testing.T) {
	g := testGraph(t, 500, 21)
	mem := storage.NewMemoryGraph(g)
	pool := NewWorkspacePool()

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for wk := 0; wk < workers; wk++ {
		wk := wk
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(1000 + wk)))
			for iter := 0; iter < 60; iter++ {
				s := roadnet.NodeID(r.Intn(g.NumNodes()))
				d := roadnet.NodeID(r.Intn(g.NumNodes()))
				w := pool.get(mem.NumNodes())
				got, gotStats, err := w.Dijkstra(mem, s, d)
				pool.put(w)
				if err != nil {
					errs <- err
					return
				}
				want, wantStats, err := ReferenceDijkstra(mem, s, d)
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(got, want) || gotStats != wantStats {
					errs <- fmt.Errorf("worker %d iter %d: pooled Dijkstra(%d,%d) diverged from reference", wk, iter, s, d)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestWorkspaceSurvivesGenerationBump checks the pool across accessor
// generation changes: on each weight update's snapshot the tree cache
// rebuilds its trees on recycled workspaces, and results still match cold
// reference SSMD runs.
func TestWorkspaceSurvivesGenerationBump(t *testing.T) {
	g := testGraph(t, 400, 31)
	mg := storage.NewMutableGraph(g)
	acc := mg.Snapshot()
	cache := NewTreeCacheWithPool(4, nil)
	r := rand.New(rand.NewSource(7))

	for round := 0; round < 5; round++ {
		for q := 0; q < 20; q++ {
			// Few distinct sources: cache hits within a round, guaranteed
			// stale-generation lookups after each bump.
			s := roadnet.NodeID(r.Intn(4))
			dests := []roadnet.NodeID{
				roadnet.NodeID(r.Intn(g.NumNodes())),
				roadnet.NodeID(r.Intn(g.NumNodes())),
			}
			row := NewTable(nil, dests)
			if _, err := cache.AppendPaths(acc, s, dests, &row); err != nil {
				t.Fatal(err)
			}
			want, err := ReferenceSSMD(acc, s, dests)
			if err != nil {
				t.Fatal(err)
			}
			requireRowMatches(t, fmt.Sprintf("round %d: cached SSMD(%d,%v)", round, s, dests), &row, want)
		}
		acc = reweighed(t, mg, roadnet.NodeID(round%4)) // invalidate: next round must rebuild trees
	}
	if inv := cache.Stats().Invalidations; inv == 0 {
		t.Fatal("expected generation bumps to invalidate cached trees")
	}
}

// TestTreeCacheConcurrentMissSingleEntry hammers concurrent misses for the
// same sources and checks the cache never double-inserts a source: the LRU
// list and the entries map must stay the same size (one element per source)
// and within capacity. Guards the recheck-and-insert critical section in
// TreeCache.lookup.
func TestTreeCacheConcurrentMissSingleEntry(t *testing.T) {
	g := testGraph(t, 300, 51)
	acc := storage.NewMemoryGraph(g)

	const workers = 8
	for round := 0; round < 20; round++ {
		cache := NewTreeCacheWithPool(8, nil)
		var wg sync.WaitGroup
		for wk := 0; wk < workers; wk++ {
			wk := wk
			wg.Add(1)
			go func() {
				defer wg.Done()
				// All workers miss on the same few sources at once.
				for s := roadnet.NodeID(0); s < 4; s++ {
					dests := []roadnet.NodeID{roadnet.NodeID((int(s)*7 + wk + 13) % g.NumNodes())}
					row := NewTable(nil, dests)
					if _, err := cache.AppendPaths(acc, s, dests, &row); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
		cache.mu.Lock()
		lruLen, mapLen := cache.lru.Len(), len(cache.entries)
		cache.mu.Unlock()
		if lruLen != mapLen {
			t.Fatalf("round %d: LRU has %d elements, map has %d — duplicate insert", round, lruLen, mapLen)
		}
		if lruLen > cache.capacity {
			t.Fatalf("round %d: %d entries exceed capacity %d", round, lruLen, cache.capacity)
		}
	}
}

// TestTreeReleaseRecyclesWorkspace checks the refcounted release: a tree
// evicted while a query is in flight keeps its workspace alive until the
// query finishes, and a released tree reports an error instead of touching
// recycled state.
func TestTreeReleaseRecyclesWorkspace(t *testing.T) {
	g := testGraph(t, 200, 41)
	acc := storage.NewMemoryGraph(g)

	tree, err := newTree(sharedWorkspaces, acc, 5)
	if err != nil {
		t.Fatal(err)
	}
	dests := []roadnet.NodeID{10}
	row := NewTable(nil, dests)
	tree.retain() // simulate an in-flight query pin
	tree.Release()
	if _, err := tree.AppendPaths(dests, &row); err != nil {
		t.Fatalf("pinned tree must stay usable: %v", err)
	}
	tree.Release() // drop the pin: workspace goes back to the pool
	if _, err := tree.AppendPaths(dests, &row); err == nil {
		t.Fatal("released tree must refuse AppendPaths")
	}

	// Eviction churn through a tiny cache: every evicted tree recycles its
	// workspace, and the cache still answers correctly.
	cache := NewTreeCacheWithPool(2, nil)
	dests = []roadnet.NodeID{150}
	for s := roadnet.NodeID(0); s < 20; s++ {
		row := NewTable(nil, dests)
		if _, err := cache.AppendPaths(acc, s, dests, &row); err != nil {
			t.Fatal(err)
		}
		want, err := ReferenceSSMD(acc, s, dests)
		if err != nil {
			t.Fatal(err)
		}
		requireRowMatches(t, fmt.Sprintf("source %d: post-eviction", s), &row, want)
	}
	if ev := cache.Stats().Evictions; ev == 0 {
		t.Fatal("expected evictions in a capacity-2 cache fed 20 sources")
	}
}

// TestWorkspaceCheckoutsBalanced holds every workspace checkout of the
// package to its return. Checkout is unexported, so the sites exercised here
// are all of them: Dijkstra, DijkstraDistance and SSMD on the shared pool,
// the SSMD and pairwise rows of Processor.appendRow, and newTree, whose
// workspace goes back through Tree.Release. After each call — on success and
// on every error return — a pool's Puts must equal its Gets, except for the
// one workspace each tree a cache still holds keeps out. A leaked workspace
// fails no other test: the pool just allocates fresh ones and the 0-alloc
// steady state is silently lost.
func TestWorkspaceCheckoutsBalanced(t *testing.T) {
	mg := storage.NewMutableGraph(testGraph(t, 300, 61))
	acc := mg.Snapshot()
	last := roadnet.NodeID(acc.NumNodes() - 1)
	bad := last + 1 // out of range
	sources := []roadnet.NodeID{3, last / 2}
	dests := []roadnet.NodeID{17, last / 3, last}
	sharedBase := sharedWorkspaces.Stats().InFlight() // trees other tests' caches still hold

	// step runs call, checks its error, that it checked out exactly
	// checkouts workspaces (-1: any number) and that the pool's in-flight
	// count is what the cache holds.
	step := func(name string, pool *WorkspacePool, cache *TreeCache, checkouts int64, wantErr bool, call func() error) {
		t.Helper()
		before := pool.Stats()
		err := call()
		if (err != nil) != wantErr {
			t.Errorf("%s: err = %v, want an error: %v", name, err, wantErr)
		}
		after := pool.Stats()
		if got := after.Gets - before.Gets; checkouts >= 0 && got != checkouts {
			t.Errorf("%s: %d checkouts, want %d", name, got, checkouts)
		}
		held := int64(0)
		if pool == sharedWorkspaces {
			held = sharedBase
		}
		if cache != nil {
			held += int64(cache.Len())
		}
		if after.InFlight() != held {
			t.Errorf("%s: %d workspaces in flight (Gets %d, Puts %d), want %d",
				name, after.InFlight(), after.Gets, after.Puts, held)
		}
	}
	evaluate := func(p *Processor, s, d []roadnet.NodeID) func() error {
		return func() error { _, err := p.Evaluate(s, d); return err }
	}
	row := func(p *Processor, s roadnet.NodeID, d []roadnet.NodeID) func() error {
		return func() error { tab := NewTable(nil, d); _, err := p.appendRow(s, d, &tab); return err }
	}
	cached := func(c *TreeCache, acc storage.Accessor, s roadnet.NodeID, d []roadnet.NodeID) func() error {
		return func() error { tab := NewTable(nil, d); _, err := c.AppendPaths(acc, s, d, &tab); return err }
	}

	// The package-level wrappers, on the shared pool.
	shared := sharedWorkspaces
	step("Dijkstra", shared, nil, 1, false, func() error { _, _, err := Dijkstra(acc, 3, last); return err })
	step("Dijkstra invalid source", shared, nil, 1, true, func() error { _, _, err := Dijkstra(acc, bad, last); return err })
	step("Dijkstra invalid dest", shared, nil, 1, true, func() error { _, _, err := Dijkstra(acc, 3, bad); return err })
	step("DijkstraDistance", shared, nil, 1, false, func() error { _, err := DijkstraDistance(acc, 3, last); return err })
	step("DijkstraDistance invalid source", shared, nil, 1, true, func() error { _, err := DijkstraDistance(acc, bad, last); return err })
	step("DijkstraDistance invalid dest", shared, nil, 1, true, func() error { _, err := DijkstraDistance(acc, 3, bad); return err })
	step("SSMD", shared, nil, 1, false, func() error { _, err := SSMD(acc, 3, dests); return err })
	step("SSMD invalid source", shared, nil, 1, true, func() error { _, err := SSMD(acc, bad, dests); return err })
	step("SSMD invalid dest", shared, nil, 1, true, func() error { _, err := SSMD(acc, 3, []roadnet.NodeID{17, bad}); return err })
	step("SSMD no dests", shared, nil, 1, true, func() error { _, err := SSMD(acc, 3, nil); return err })

	// Both rows of Processor.appendRow, on a private pool. Evaluate rejects a
	// malformed query before any row runs, so the rows' own error returns are
	// reached through appendRow directly.
	rows := NewWorkspacePool()
	for _, strategy := range []Strategy{StrategySSMD, StrategyPairwise} {
		p := NewProcessor(acc, WithStrategy(strategy), WithWorkspacePool(rows))
		name := string(strategy)
		step(name+" Evaluate", rows, nil, int64(len(sources)), false, evaluate(p, sources, dests))
		step(name+" Evaluate invalid source", rows, nil, 0, true, evaluate(p, []roadnet.NodeID{bad}, dests))
		step(name+" Evaluate invalid dest", rows, nil, 0, true, evaluate(p, sources, []roadnet.NodeID{bad}))
		step(name+" Evaluate no dests", rows, nil, 0, true, evaluate(p, sources, nil))
		step(name+" row invalid source", rows, nil, 1, true, row(p, bad, dests))
		step(name+" row invalid dest", rows, nil, 1, true, row(p, 3, []roadnet.NodeID{17, bad}))
	}
	step("ssmd row no dests", rows, nil, 1, true, row(NewProcessor(acc, WithWorkspacePool(rows)), 3, nil))
	step("unknown strategy", rows, nil, 0, true, evaluate(NewProcessor(acc, WithStrategy("bogus"), WithWorkspacePool(rows)), sources, dests))

	// newTree through a tree cache: each cached tree keeps one workspace
	// out, and every tree the cache drops — on eviction, on invalidation, or
	// as the loser of a concurrent miss — returns its workspace.
	trees := NewWorkspacePool()
	cache := NewTreeCacheWithPool(3, trees)
	p := NewProcessor(acc, WithTreeCache(cache), WithWorkspacePool(trees))
	step("cache miss", trees, cache, 1, false, cached(cache, acc, 3, dests))
	step("cache hit", trees, cache, 0, false, cached(cache, acc, 3, dests))
	step("cache miss invalid source", trees, cache, 0, true, cached(cache, acc, bad, dests))
	step("cache miss invalid dest", trees, cache, 1, true, cached(cache, acc, 7, []roadnet.NodeID{bad}))
	step("cache hit invalid dest", trees, cache, 0, true, cached(cache, acc, 3, []roadnet.NodeID{bad}))
	step("cache miss no dests", trees, cache, 1, true, cached(cache, acc, 11, nil))
	step("cache Evaluate", trees, cache, -1, false, evaluate(p, sources, dests))
	for s := roadnet.NodeID(20); s < 26; s++ {
		step(fmt.Sprintf("cache eviction (source %d)", s), trees, cache, 1, false, cached(cache, acc, s, dests))
	}
	if cache.Stats().Evictions == 0 {
		t.Error("capacity eviction was not exercised")
	}
	next := reweighed(t, mg, 20)
	for s := roadnet.NodeID(25); s >= 23; s-- { // the three sources still cached
		step(fmt.Sprintf("cache invalidation (source %d)", s), trees, cache, 1, false, cached(cache, next, s, dests))
	}
	if cache.Stats().Invalidations == 0 {
		t.Error("generation invalidation was not exercised")
	}

	// TestTreeCacheConcurrentMissSingleEntry's race: concurrent misses on
	// the same sources build duplicate trees, and the losers must recycle
	// theirs.
	for round := 0; round < 10; round++ {
		pool := NewWorkspacePool()
		cache := NewTreeCacheWithPool(8, pool)
		step(fmt.Sprintf("concurrent miss round %d", round), pool, cache, -1, false, func() error {
			var wg sync.WaitGroup
			errs := make(chan error, 8)
			for wk := 0; wk < 8; wk++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for s := roadnet.NodeID(0); s < 4; s++ {
						if err := cached(cache, acc, s, []roadnet.NodeID{roadnet.NodeID(wk*31+13) % last})(); err != nil {
							errs <- err
							return
						}
					}
				}()
			}
			wg.Wait()
			close(errs)
			return <-errs
		})
	}

	// A tree outside any cache: Release returns its workspace, and
	// AppendPaths on the released tree checks nothing out.
	pool := NewWorkspacePool()
	var tree *Tree
	step("newTree", pool, nil, 1, false, func() (err error) { tree, err = newTree(pool, acc, 5); tree.Release(); return err })
	step("AppendPaths on a released tree", pool, nil, 0, true, func() error {
		tab := NewTable(nil, dests)
		_, err := tree.AppendPaths(dests, &tab)
		return err
	})
}
