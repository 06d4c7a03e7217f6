package main

import (
	"bytes"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"opaque/internal/ch"
	"opaque/internal/gen"
	"opaque/internal/protocol"
	"opaque/internal/roadnet"
	"opaque/internal/search"
	"opaque/internal/server"
	"opaque/internal/storage"
)

// TestRunBuildsVerifiesAndWrites drives the whole command on a small
// generated map: build, self-check against Dijkstra, persist, and reload the
// written file against the same graph.
func TestRunBuildsVerifiesAndWrites(t *testing.T) {
	out := &bytes.Buffer{}
	path := filepath.Join(t.TempDir(), "net.och")
	err := run([]string{"-generate", "grid", "-nodes", "400", "-seed", "7", "-check", "20", "-out", path}, out, out)
	if err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out)
	}
	for _, want := range []string{"contracted in", "verified 20 random queries", "verified mtm 2x2 table", "overlay written"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	overlay, err := ch.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg := gen.DefaultNetworkConfig()
	cfg.Kind = gen.Grid
	cfg.Nodes = 400
	cfg.Seed = 7
	g := gen.MustGenerate(cfg)
	if err := overlay.Matches(g); err != nil {
		t.Fatalf("written overlay does not match its source graph: %v", err)
	}
}

// TestRunUsageErrors covers the required-flag and bad-flag paths.
func TestRunUsageErrors(t *testing.T) {
	out := &bytes.Buffer{}
	if err := run([]string{"-generate", "grid", "-nodes", "50"}, out, out); err == nil {
		t.Fatal("missing -out accepted")
	}
	if err := run([]string{"-no-such-flag"}, out, out); err == nil {
		t.Fatal("unknown flag accepted")
	}
	if err := run([]string{"-network", "/nonexistent/net.txt", "-out", filepath.Join(t.TempDir(), "x.och")}, out, out); err == nil {
		t.Fatal("nonexistent network file accepted")
	}
}

// TestDefaultOverlayServesWeightUpdates: the file written with default flags
// is the overlay kind a hybrid server needs for live traffic. Installed in
// one, it absorbs a weight update, and after re-customization both overlay
// routes (pairwise and many-to-many) answer exactly like reference Dijkstra
// on the updated snapshot, to within float association error.
func TestDefaultOverlayServesWeightUpdates(t *testing.T) {
	out := &bytes.Buffer{}
	path := filepath.Join(t.TempDir(), "net.och")
	if err := run([]string{"-generate", "grid", "-nodes", "400", "-seed", "7", "-out", path}, out, out); err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out)
	}
	overlay, err := ch.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	netCfg := gen.DefaultNetworkConfig()
	netCfg.Kind = gen.Grid
	netCfg.Nodes = 400
	netCfg.Seed = 7
	g := gen.MustGenerate(netCfg)

	cfg := server.DefaultConfig()
	cfg.Strategy = server.StrategyHybrid
	cfg.CHOverlay = overlay
	s, err := server.New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	arc := g.Arcs(0)[0]
	if _, err := s.UpdateWeights([]roadnet.ArcWeightChange{{From: 0, To: arc.To, NewCost: arc.Cost / 100}}); err != nil {
		t.Fatalf("weight update over the default overlay refused: %v", err)
	}
	if err := s.RecustomizeNow(); err != nil {
		t.Fatal(err)
	}
	cur := storage.NewMemoryGraph(s.Graph())
	if cur.Graph() == g {
		t.Fatal("the update did not move the served graph")
	}
	for _, q := range []protocol.ServerQuery{
		{Sources: []roadnet.NodeID{0}, Dests: []roadnet.NodeID{arc.To, 399}},
		{Sources: []roadnet.NodeID{0, 57, 210}, Dests: []roadnet.NodeID{arc.To, 123, 399}},
	} {
		reply, err := s.Evaluate(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, cand := range reply.Paths {
			want, _, err := search.ReferenceDijkstra(cur, cand.Source, cand.Dest)
			if err != nil {
				t.Fatal(err)
			}
			// Grid costs are floats: overlay sums may associate differently.
			if len(want.Nodes) == 0 || math.Abs(cand.Cost-want.Cost) > 1e-9*(1+want.Cost) {
				t.Fatalf("pair (%d,%d): served %v, reference on the updated snapshot %v", cand.Source, cand.Dest, cand.Cost, want.Cost)
			}
		}
	}
	m := s.Metrics()
	if m.Counter("mtm_queries") != 2 || m.Counter("fallback_queries") != 0 {
		t.Fatalf("routes: mtm=%d fallback=%d, want both queries on the overlay",
			m.Counter("mtm_queries"), m.Counter("fallback_queries"))
	}
}
