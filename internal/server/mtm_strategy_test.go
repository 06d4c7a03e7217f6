package server

import (
	"fmt"
	"math"
	"testing"
	"time"

	"opaque/internal/protocol"
	"opaque/internal/roadnet"
	"opaque/internal/search"
	"opaque/internal/storage"
)

// TestStrategyCHMTMMatchesSSMD runs wide obfuscated queries — 2×3 and up,
// duplicates and s==t cells included — through a hybrid server and a plain
// SSMD server and asserts identical candidate costs and reachability: the
// server-level face of the many-to-many correctness property. Every query
// must route to the bucket engine.
func TestStrategyCHMTMMatchesSSMD(t *testing.T) {
	mtmSrv, ssmdSrv := hybridAndSSMD(t)
	queries := []protocol.ServerQuery{
		{QueryID: 1, Sources: []roadnet.NodeID{1, 50}, Dests: []roadnet.NodeID{200, 400, 600}},
		{QueryID: 2, Sources: []roadnet.NodeID{10, 20, 30}, Dests: []roadnet.NodeID{11, 21, 31}},
		{QueryID: 3, Sources: []roadnet.NodeID{10, 20, 30, 40}, Dests: []roadnet.NodeID{11, 21, 31, 41, 51, 61}},
		{QueryID: 4, Sources: []roadnet.NodeID{5, 5, 9}, Dests: []roadnet.NodeID{5, 9, 9}}, // duplicates and s==t cells
	}
	assertMatchesSSMD(t, mtmSrv, ssmdSrv, queries)
	if n := mtmSrv.Metrics().Counter("mtm_queries"); n != int64(len(queries)) {
		t.Fatalf("mtm_queries = %d, want %d", n, len(queries))
	}
	if st := mtmSrv.MTMStats(); st.Tables != int64(len(queries)) {
		t.Fatalf("MTM Tables = %d, want %d", st.Tables, len(queries))
	}
}

// TestHybridRoutesEveryOverlayQueryToMTM pins the one overlay route: every
// query shape on a hybrid server with an overlay, 1×1 included, is one
// many-to-many table — counted in mtm_queries and in the engine's Tables,
// never in fallback_queries — and its costs equal reference Dijkstra.
func TestHybridRoutesEveryOverlayQueryToMTM(t *testing.T) {
	srv, _ := hybridAndSSMD(t)
	for i, shape := range [][2]int{{1, 1}, {1, 2}, {2, 2}, {1, 4}, {1, 5}, {3, 3}} {
		q := protocol.ServerQuery{}
		for k := 0; k < shape[0]; k++ {
			q.Sources = append(q.Sources, roadnet.NodeID(10+7*k))
		}
		for k := 0; k < shape[1]; k++ {
			q.Dests = append(q.Dests, roadnet.NodeID(300+11*k))
		}
		assertRoutedToMTM(t, srv, q, int64(i+1))
	}
}

// TestHybridCutoverBoundary checks the pair counts around the former
// pairwise/many-to-many cutover of 4 pairs: 3, 4 and 5 pairs from one
// source each route to the many-to-many engine on a fresh hybrid server,
// so no pair count takes another overlay route.
func TestHybridCutoverBoundary(t *testing.T) {
	g := testGraph(t)
	overlay := chTestOverlay(t, g)
	for _, pairs := range []int{3, 4, 5} {
		t.Run(fmt.Sprintf("1x%d", pairs), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Strategy = StrategyHybrid
			cfg.CHOverlay = overlay
			srv := MustNew(g, cfg)
			dests := make([]roadnet.NodeID, pairs)
			for i := range dests {
				dests[i] = roadnet.NodeID(20 + 10*i)
			}
			assertRoutedToMTM(t, srv, protocol.ServerQuery{Sources: []roadnet.NodeID{10}, Dests: dests}, 1)
		})
	}
}

// TestOverlayQueriesHoldSearchGate: an overlay query holds one slot of the
// server-wide search gate for its whole table, so while the gate is full it
// waits, and once the slot frees it answers with reference costs.
func TestOverlayQueriesHoldSearchGate(t *testing.T) {
	g := testGraph(t)
	cfg := DefaultConfig()
	cfg.Strategy = StrategyHybrid
	cfg.CHOverlay = chTestOverlay(t, g)
	cfg.MaxConcurrentSearches = 1
	srv := MustNew(g, cfg)
	q := protocol.ServerQuery{Sources: []roadnet.NodeID{10, 17}, Dests: []roadnet.NodeID{300, 311}}

	type result struct {
		reply protocol.ServerReply
		err   error
	}
	done := make(chan result, 1)
	srv.gate.Acquire()
	go func() {
		reply, err := srv.Evaluate(q)
		done <- result{reply, err}
	}()
	select {
	case r := <-done:
		srv.gate.Release()
		t.Fatalf("overlay query returned while the search gate was full (err = %v)", r.err)
	case <-time.After(50 * time.Millisecond):
	}
	srv.gate.Release()
	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	if len(r.reply.Paths) != len(q.Sources)*len(q.Dests) {
		t.Fatalf("reply carries %d candidates, want %d", len(r.reply.Paths), len(q.Sources)*len(q.Dests))
	}
	acc := storage.NewMemoryGraph(g)
	for _, c := range r.reply.Paths {
		want, _, err := search.ReferenceDijkstra(acc, c.Source, c.Dest)
		if err != nil {
			t.Fatal(err)
		}
		if !sameCandidateCost(c, want) {
			t.Fatalf("pair (%d,%d): found=%v cost %v, reference %v", c.Source, c.Dest, c.Found, c.Cost, want.Cost)
		}
	}
	if n := srv.Metrics().Counter("mtm_queries"); n != 1 {
		t.Fatalf("mtm_queries = %d, want 1", n)
	}
}

// assertRoutedToMTM evaluates q on srv, asserts every candidate agrees with
// reference Dijkstra, and asserts the server has now routed wantTables
// queries to the many-to-many engine and none to the SSMD fallback.
func assertRoutedToMTM(t *testing.T, srv *Server, q protocol.ServerQuery, wantTables int64) {
	t.Helper()
	shape := fmt.Sprintf("%dx%d", len(q.Sources), len(q.Dests))
	reply, err := srv.Evaluate(q)
	if err != nil {
		t.Fatal(err)
	}
	acc := storage.NewMemoryGraph(srv.Graph())
	for _, c := range reply.Paths {
		want, _, err := search.ReferenceDijkstra(acc, c.Source, c.Dest)
		if err != nil {
			t.Fatal(err)
		}
		if !sameCandidateCost(c, want) {
			t.Fatalf("%s pair (%d,%d): hybrid found=%v cost %v, reference %v", shape, c.Source, c.Dest, c.Found, c.Cost, want.Cost)
		}
	}
	m := srv.Metrics()
	if n := m.Counter("mtm_queries"); n != wantTables {
		t.Fatalf("%s: mtm_queries = %d, want %d", shape, n, wantTables)
	}
	if st := srv.MTMStats(); st.Tables != wantTables || st.BucketEntries == 0 {
		t.Fatalf("%s: MTM stats = %+v, want %d tables with bucket entries", shape, st, wantTables)
	}
	if n := m.Counter("fallback_queries"); n != 0 {
		t.Fatalf("%s: fallback_queries = %d, want 0 (hybrid with an overlay never routes to SSMD)", shape, n)
	}
}

// sameCandidateCost reports whether candidate c agrees with the reference
// path on reachability and, within float re-association, on cost.
func sameCandidateCost(c protocol.CandidatePath, want search.Path) bool {
	if found := len(want.Nodes) > 0; c.Found != found {
		return false
	}
	return !c.Found || math.Abs(c.Cost-want.Cost) <= 1e-9*(1+want.Cost)
}

// TestShedSmallQuerySkipsUnpacking: a shed (DistanceOnly) query of a few
// pairs takes the many-to-many engine's distance-only fast path — its costs
// equal reference Dijkstra, no candidate carries nodes, and it allocates
// strictly less than the same query with paths.
func TestShedSmallQuerySkipsUnpacking(t *testing.T) {
	g := testGraph(t)
	cfg := DefaultConfig()
	cfg.Strategy = StrategyHybrid
	cfg.CHOverlay = chTestOverlay(t, g)
	cfg.KeepLog = false
	srv := MustNew(g, cfg)
	acc := storage.NewMemoryGraph(g)
	for _, q := range []protocol.ServerQuery{
		{Sources: []roadnet.NodeID{12}, Dests: []roadnet.NodeID{640}},
		{Sources: []roadnet.NodeID{12, 90}, Dests: []roadnet.NodeID{640, 333}},
	} {
		shape := fmt.Sprintf("%dx%d", len(q.Sources), len(q.Dests))
		shed := q
		shed.DistanceOnly = true
		reply, err := srv.Evaluate(shed)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range reply.Paths {
			want, _, err := search.ReferenceDijkstra(acc, c.Source, c.Dest)
			if err != nil {
				t.Fatal(err)
			}
			if !sameCandidateCost(c, want) {
				t.Fatalf("%s pair (%d,%d): shed found=%v cost %v, reference %v", shape, c.Source, c.Dest, c.Found, c.Cost, want.Cost)
			}
			if c.Nodes != nil {
				t.Fatalf("%s pair (%d,%d): shed candidate carries %d nodes", shape, c.Source, c.Dest, len(c.Nodes))
			}
		}
		if raceEnabled {
			continue // race instrumentation allocates and defeats sync.Pool reuse
		}
		allocs := func(q protocol.ServerQuery) float64 {
			return testing.AllocsPerRun(50, func() {
				if _, err := srv.Evaluate(q); err != nil {
					t.Fatal(err)
				}
			})
		}
		if withPaths, distOnly := allocs(q), allocs(shed); distOnly >= withPaths {
			t.Fatalf("%s: shed query allocated %v times, the same query with paths %v; want strictly fewer", shape, distOnly, withPaths)
		}
	}
}

// TestHybridWithoutOverlayFallsBackToSSMD asserts the degraded hybrid mode:
// no overlay, no BuildCH — the server still comes up, every query runs on
// the SSMD processor (tree cache included), and the routing counters say so.
func TestHybridWithoutOverlayFallsBackToSSMD(t *testing.T) {
	g := testGraph(t)
	cfg := DefaultConfig()
	cfg.Strategy = StrategyHybrid
	cfg.TreeCache = 16
	srv, err := New(g, cfg)
	if err != nil {
		t.Fatalf("hybrid without overlay must degrade to SSMD, got error: %v", err)
	}
	if srv.Overlay() != nil {
		t.Fatal("server reports an overlay it was never given")
	}
	q := protocol.ServerQuery{Sources: []roadnet.NodeID{5, 6}, Dests: []roadnet.NodeID{300, 301, 302, 303, 304, 305, 306, 307, 308}}
	if _, err := srv.Evaluate(q); err != nil {
		t.Fatal(err)
	}
	if n := srv.Metrics().Counter("fallback_queries"); n != 1 {
		t.Fatalf("fallback_queries = %d, want 1", n)
	}
	if n := srv.Metrics().Counter("mtm_queries"); n != 0 {
		t.Fatalf("overlay routing counter moved without an overlay: %d", n)
	}
	if st := srv.TreeCacheStats(); st.Hits+st.Misses == 0 {
		t.Fatal("fallback query bypassed the SSMD tree cache")
	}
	if st := srv.MTMStats(); st.Tables != 0 || st.BucketEntries != 0 {
		t.Fatalf("MTMStats without an overlay = %+v, want zeroes", st)
	}
}

// TestMTMMetricsSurfaced asserts the bucket-engine instrumentation reaches
// the metrics registry the periodic stats log reads — and counts the point
// query beside the wide table, since both are tables.
func TestMTMMetricsSurfaced(t *testing.T) {
	g := testGraph(t)
	cfg := DefaultConfig()
	cfg.Strategy = StrategyHybrid
	cfg.CHOverlay = chTestOverlay(t, g)
	srv := MustNew(g, cfg)
	for _, q := range []protocol.ServerQuery{
		{Sources: []roadnet.NodeID{1, 2, 3}, Dests: []roadnet.NodeID{500, 501, 502, 503}},
		{Sources: []roadnet.NodeID{1}, Dests: []roadnet.NodeID{500}},
	} {
		if _, err := srv.Evaluate(q); err != nil {
			t.Fatal(err)
		}
	}
	m := srv.Metrics()
	st := srv.MTMStats()
	if st.Tables != 2 || st.BucketEntries == 0 || st.BucketEntriesScanned == 0 || st.ArenaHighWater == 0 {
		t.Fatalf("MTM stats after two tables: %+v", st)
	}
	if n := m.Counter("mtm_queries"); n != 2 {
		t.Fatalf("mtm_queries = %d, want 2", n)
	}
	if got := m.Gauge("mtm_tables"); got != float64(st.Tables) {
		t.Fatalf("mtm_tables gauge = %v, engine says %d", got, st.Tables)
	}
	if got := m.Gauge("mtm_bucket_entries"); got != float64(st.BucketEntries) {
		t.Fatalf("mtm_bucket_entries gauge = %v, engine says %d", got, st.BucketEntries)
	}
	if got := m.Gauge("mtm_bucket_entries_scanned"); got != float64(st.BucketEntriesScanned) {
		t.Fatalf("mtm_bucket_entries_scanned gauge = %v, engine says %d", got, st.BucketEntriesScanned)
	}
	if got := m.Gauge("mtm_arena_high_water"); got != float64(st.ArenaHighWater) {
		t.Fatalf("mtm_arena_high_water gauge = %v, engine says %d", got, st.ArenaHighWater)
	}
}
