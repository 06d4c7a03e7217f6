package core

import (
	"math"
	"testing"

	"opaque/internal/gen"
	"opaque/internal/obfuscate"
	"opaque/internal/roadnet"
	"opaque/internal/search"
	"opaque/internal/storage"
)

func testGraph(t testing.TB) *roadnet.Graph {
	t.Helper()
	cfg := gen.DefaultNetworkConfig()
	cfg.Nodes = 900
	cfg.Seed = 121
	return gen.MustGenerate(cfg)
}

func testConfig(g *roadnet.Graph, mode obfuscate.Mode) Config {
	cfg := DefaultConfig()
	cfg.Obfuscator.Obfuscation.Mode = mode
	minX, minY, maxX, maxY := g.Bounds()
	extent := math.Max(maxX-minX, maxY-minY)
	cfg.Obfuscator.Obfuscation.Selector = obfuscate.MustNewRingBandSelector(0.02*extent, 0.2*extent, 123)
	return cfg
}

func TestNewSystemValidation(t *testing.T) {
	g := testGraph(t)
	bad := DefaultConfig()
	bad.Server.Strategy = "bogus"
	if _, err := NewSystem(g, bad); err == nil {
		t.Error("bad server config accepted")
	}
	bad2 := DefaultConfig()
	bad2.Obfuscator.Obfuscation.Selector = nil
	if _, err := NewSystem(g, bad2); err == nil {
		t.Error("bad obfuscator config accepted")
	}
}

func TestSystemEndToEnd(t *testing.T) {
	g := testGraph(t)
	sys := MustNewSystem(g, testConfig(g, obfuscate.Shared))
	alice, err := sys.NewClient("alice")
	if err != nil {
		t.Fatal(err)
	}
	wl := gen.MustGenerateWorkload(g, gen.WorkloadConfig{Kind: gen.Uniform, Queries: 5, Seed: 125})
	acc := storage.NewMemoryGraph(g)
	for _, pr := range wl {
		res, err := alice.QueryWithProtection(pr.Source, pr.Dest, 3, 3)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found {
			t.Fatalf("no path for %d->%d", pr.Source, pr.Dest)
		}
		truth, _, err := search.Dijkstra(acc, pr.Source, pr.Dest)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(truth.Cost-res.Path.Cost) > 1e-6 {
			t.Errorf("OPAQUE path cost %v, shortest %v", res.Path.Cost, truth.Cost)
		}
	}
	// Every query in the server log must satisfy the 3x3 protection.
	for _, entry := range sys.Server.QueryLog() {
		if len(entry.Sources) < 3 || len(entry.Dests) < 3 {
			t.Errorf("server saw |S|=%d |T|=%d, below the 3x3 protection", len(entry.Sources), len(entry.Dests))
		}
	}
}

func TestSystemWithDifferentMaps(t *testing.T) {
	serverMap := testGraph(t)
	// The obfuscator holds a coarser map: same nodes, perturbed costs.
	obfMap := serverMap.Clone()
	obfMap.Freeze()
	cfg := testConfig(serverMap, obfuscate.Independent)
	sys, err := NewSystemWithMaps(serverMap, obfMap, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wl := gen.MustGenerateWorkload(serverMap, gen.WorkloadConfig{Kind: gen.Uniform, Queries: 3, Seed: 127})
	batch := []obfuscate.Request{{User: "a", Source: wl[0].Source, Dest: wl[0].Dest, FS: 2, FT: 2}}
	results, err := sys.ProcessBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	if !results[0].Found {
		t.Error("path not found with split maps")
	}
}

func TestDirectClientBypassesObfuscation(t *testing.T) {
	g := testGraph(t)
	sys := MustNewSystem(g, testConfig(g, obfuscate.Shared))
	direct := sys.DirectClient()
	wl := gen.MustGenerateWorkload(g, gen.WorkloadConfig{Kind: gen.Uniform, Queries: 1, Seed: 129})
	res, err := direct.Query(wl[0].Source, wl[0].Dest)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Error("direct query found no path")
	}
	log := sys.Server.QueryLog()
	if len(log) != 1 || len(log[0].Sources) != 1 || len(log[0].Dests) != 1 {
		t.Errorf("direct query should appear as a bare 1x1 query, log = %+v", log)
	}
}
