package server

import (
	"math"
	"testing"

	"opaque/internal/ch"
	"opaque/internal/gen"
	"opaque/internal/protocol"
	"opaque/internal/roadnet"
)

// chTestOverlay builds the overlay for testGraph once per test binary; the
// contraction pass is the expensive part of these tests.
func chTestOverlay(t testing.TB, g *roadnet.Graph) *ch.Overlay {
	t.Helper()
	o, err := ch.BuildCustomizable(g)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// hybridAndSSMD builds a hybrid server over testGraph's overlay and a plain
// SSMD server over the same graph, the pair every SSMD-equivalence test
// compares.
func hybridAndSSMD(t *testing.T) (hybrid, ssmd *Server) {
	t.Helper()
	g := testGraph(t)
	cfg := DefaultConfig()
	cfg.Strategy = StrategyHybrid
	cfg.CHOverlay = chTestOverlay(t, g)
	return MustNew(g, cfg), MustNew(g, DefaultConfig())
}

// assertMatchesSSMD evaluates every query on both servers and asserts the
// candidates pair up with identical endpoints, reachability and cost.
func assertMatchesSSMD(t *testing.T, srv, ssmdSrv *Server, queries []protocol.ServerQuery) {
	t.Helper()
	for _, q := range queries {
		got, err := srv.Evaluate(q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ssmdSrv.Evaluate(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Paths) != len(want.Paths) {
			t.Fatalf("query %d: %d paths vs %d", q.QueryID, len(got.Paths), len(want.Paths))
		}
		for i := range got.Paths {
			gp, wp := got.Paths[i], want.Paths[i]
			if gp.Source != wp.Source || gp.Dest != wp.Dest {
				t.Fatalf("query %d: candidate %d is for (%d,%d), want (%d,%d)", q.QueryID, i, gp.Source, gp.Dest, wp.Source, wp.Dest)
			}
			if len(gp.Nodes) == 0 != (len(wp.Nodes) == 0) {
				t.Fatalf("query %d pair (%d,%d): reachability disagrees", q.QueryID, gp.Source, gp.Dest)
			}
			if len(gp.Nodes) != 0 && math.Abs(gp.Cost-wp.Cost) > 1e-9*(1+wp.Cost) {
				t.Fatalf("query %d pair (%d,%d): hybrid cost %v, SSMD cost %v", q.QueryID, gp.Source, gp.Dest, gp.Cost, wp.Cost)
			}
		}
	}
}

// TestStrategyCHMatchesSSMD runs point-ish obfuscated queries — at most 4
// pairs, duplicates and s==t cells included — through a hybrid server and a
// plain SSMD server and asserts identical candidate costs and reachability:
// the server-level face of the CH correctness property. Every query must
// route to the overlay's many-to-many engine.
func TestStrategyCHMatchesSSMD(t *testing.T) {
	chSrv, ssmdSrv := hybridAndSSMD(t)
	queries := []protocol.ServerQuery{
		{QueryID: 1, Sources: []roadnet.NodeID{700}, Dests: []roadnet.NodeID{3}},
		{QueryID: 2, Sources: []roadnet.NodeID{1}, Dests: []roadnet.NodeID{200, 400, 600}},
		{QueryID: 3, Sources: []roadnet.NodeID{10, 20}, Dests: []roadnet.NodeID{11, 21}},
		{QueryID: 4, Sources: []roadnet.NodeID{5, 5}, Dests: []roadnet.NodeID{5, 9}},
	}
	assertMatchesSSMD(t, chSrv, ssmdSrv, queries)
	if n := chSrv.Metrics().Counter("mtm_queries"); n != int64(len(queries)) {
		t.Fatalf("mtm_queries = %d, want %d", n, len(queries))
	}
}

// TestStrategyHybridRouting asserts a hybrid server with an overlay routes
// a small query (2 pairs) and a wide one (6 pairs) alike to the
// many-to-many bucket engine, and both produce correct results.
func TestStrategyHybridRouting(t *testing.T) {
	srv, _ := hybridAndSSMD(t)
	small := protocol.ServerQuery{QueryID: 1, Sources: []roadnet.NodeID{5}, Dests: []roadnet.NodeID{300, 301}}
	large := protocol.ServerQuery{QueryID: 2, Sources: []roadnet.NodeID{5, 6}, Dests: []roadnet.NodeID{300, 301, 302}}
	assertRoutedToMTM(t, srv, small, 1)
	assertRoutedToMTM(t, srv, large, 2)
}

// TestCHStrategyConfigValidation covers the overlay requirements of a hybrid
// server: a mismatched overlay is refused, and BuildCH builds a customizable
// one over the server's graph.
func TestCHStrategyConfigValidation(t *testing.T) {
	g := testGraph(t)
	cfg := DefaultConfig()
	cfg.Strategy = StrategyHybrid
	otherCfg := gen.DefaultNetworkConfig()
	otherCfg.Nodes = 300
	otherCfg.Seed = 1234
	other := gen.MustGenerate(otherCfg)
	cfg.CHOverlay = chTestOverlay(t, other)
	if _, err := New(g, cfg); err == nil {
		t.Fatal("overlay for a different graph accepted")
	}
	cfg.CHOverlay = nil
	cfg.BuildCH = true
	srv, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if srv.Overlay() == nil {
		t.Fatal("BuildCH server has no overlay")
	}
	if srv.Overlay().NumNodes() != g.NumNodes() {
		t.Fatalf("built overlay covers %d nodes, graph has %d", srv.Overlay().NumNodes(), g.NumNodes())
	}
}

// TestWorkspacePoolStatsSurfaced asserts the pool counters climb with
// traffic and are mirrored into the metrics registry the periodic stats log
// reads.
func TestWorkspacePoolStatsSurfaced(t *testing.T) {
	g := testGraph(t)
	srv := MustNew(g, DefaultConfig())
	for i := 0; i < 5; i++ {
		if _, err := srv.Evaluate(protocol.ServerQuery{Sources: []roadnet.NodeID{roadnet.NodeID(i)}, Dests: []roadnet.NodeID{400}}); err != nil {
			t.Fatal(err)
		}
	}
	ws := srv.WorkspacePoolStats()
	if ws.Gets < 5 {
		t.Fatalf("pool Gets = %d after 5 queries, want ≥ 5", ws.Gets)
	}
	if ws.InFlight() != 0 {
		t.Fatalf("pool InFlight = %d at rest, want 0", ws.InFlight())
	}
	if ws.Puts != ws.Gets {
		t.Fatalf("pool Puts = %d, Gets = %d — a workspace leaked", ws.Puts, ws.Gets)
	}
	m := srv.Metrics()
	if got := m.Gauge("workspace_gets"); got != float64(ws.Gets) {
		t.Fatalf("workspace_gets gauge = %v, pool says %d", got, ws.Gets)
	}
	if m.Gauge("workspace_reuse_ratio") < 0 || m.Gauge("workspace_reuse_ratio") > 1 {
		t.Fatalf("workspace_reuse_ratio out of range: %v", m.Gauge("workspace_reuse_ratio"))
	}
}
