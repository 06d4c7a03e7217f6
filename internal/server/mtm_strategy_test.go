package server

import (
	"fmt"
	"testing"

	"opaque/internal/protocol"
	"opaque/internal/roadnet"
)

// TestStrategyCHMTMMatchesSSMD runs wide obfuscated queries — more than
// DefaultCHMaxPairs pairs, duplicates and s==t cells included — through a
// hybrid server and a plain SSMD server and asserts identical candidate
// costs and reachability: the server-level face of the many-to-many
// correctness property. Every query must route to the bucket engine.
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
	if n := mtmSrv.Metrics().Counter("ch_queries"); n != 0 {
		t.Fatalf("ch_queries = %d, want 0 (every query is wider than DefaultCHMaxPairs)", n)
	}
	if st := mtmSrv.MTMStats(); st.Tables != int64(len(queries)) {
		t.Fatalf("MTM Tables = %d, want %d", st.Tables, len(queries))
	}
}

// TestHybridCutoverBoundary pins the DefaultCHMaxPairs routing semantics at
// the boundary: |S|·|T| of DefaultCHMaxPairs−1 and DefaultCHMaxPairs route
// pairwise to the overlay (the cutover is inclusive), DefaultCHMaxPairs+1
// routes to the many-to-many engine.
func TestHybridCutoverBoundary(t *testing.T) {
	g := testGraph(t)
	overlay := chTestOverlay(t, g)
	cases := []struct {
		name            string
		pairs           int
		wantCH, wantMTM int64
	}{
		{fmt.Sprintf("below (%d = DefaultCHMaxPairs-1)", DefaultCHMaxPairs-1), DefaultCHMaxPairs - 1, 1, 0},
		{fmt.Sprintf("at (%d = DefaultCHMaxPairs)", DefaultCHMaxPairs), DefaultCHMaxPairs, 1, 0},
		{fmt.Sprintf("above (%d = DefaultCHMaxPairs+1)", DefaultCHMaxPairs+1), DefaultCHMaxPairs + 1, 0, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Strategy = StrategyHybrid
			cfg.CHOverlay = overlay
			srv := MustNew(g, cfg)
			dests := make([]roadnet.NodeID, tc.pairs)
			for i := range dests {
				dests[i] = roadnet.NodeID(20 + 10*i)
			}
			if _, err := srv.Evaluate(protocol.ServerQuery{Sources: []roadnet.NodeID{10}, Dests: dests}); err != nil {
				t.Fatal(err)
			}
			if n := srv.Metrics().Counter("ch_queries"); n != tc.wantCH {
				t.Fatalf("ch_queries = %d, want %d", n, tc.wantCH)
			}
			if n := srv.Metrics().Counter("mtm_queries"); n != tc.wantMTM {
				t.Fatalf("mtm_queries = %d, want %d", n, tc.wantMTM)
			}
			if n := srv.Metrics().Counter("fallback_queries"); n != 0 {
				t.Fatalf("fallback_queries = %d, want 0 (hybrid with an overlay never routes to SSMD)", n)
			}
		})
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
	if n := srv.Metrics().Counter("ch_queries") + srv.Metrics().Counter("mtm_queries"); n != 0 {
		t.Fatalf("overlay routing counters moved without an overlay: %d", n)
	}
	if st := srv.TreeCacheStats(); st.Hits+st.Misses == 0 {
		t.Fatal("fallback query bypassed the SSMD tree cache")
	}
	if st := srv.MTMStats(); st.Tables != 0 || st.BucketEntries != 0 {
		t.Fatalf("MTMStats without an overlay = %+v, want zeroes", st)
	}
}

// TestMTMMetricsSurfaced asserts the bucket-engine instrumentation reaches
// the metrics registry the periodic stats log reads — and counts only the
// wide table, not the point query routed pairwise beside it.
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
	if st.Tables != 1 || st.BucketEntries == 0 || st.BucketEntriesScanned == 0 || st.ArenaHighWater == 0 {
		t.Fatalf("MTM stats after one table: %+v", st)
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
