package opaque

import (
	"math"
	"testing"
)

func TestSelectorConstructors(t *testing.T) {
	g := testNetwork(t)
	if NewUniformSelector(1) == nil {
		t.Error("NewUniformSelector returned nil")
	}
	ring, err := NewRingBandSelector(100, 10000, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRingBandSelector(10, 5, 2); err == nil {
		t.Error("invalid ring band accepted")
	}
	dens, err := NewDensityAwareSelector(10000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewDensityAwareSelector(0, 3); err == nil {
		t.Error("invalid density radius accepted")
	}
	sticky := NewStickySelector(ring, 0)
	if sticky == nil || dens == nil {
		t.Fatal("selector constructors returned nil")
	}
	// A system wired with the sticky selector still answers correctly.
	cfg := DefaultConfig()
	cfg.Obfuscator.Obfuscation.Selector = sticky
	sys, err := NewSystem(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	client, err := sys.NewClient("carol")
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := GenerateWorkload(g, WorkloadConfig{Kind: "uniform", Queries: 1, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	res, err := client.QueryWithProtection(pairs[0].Source, pairs[0].Dest, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := ShortestPath(g, pairs[0].Source, pairs[0].Dest)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || math.Abs(res.Path.Cost-truth.Cost) > 1e-6 {
		t.Errorf("sticky-selector system returned cost %v, want %v", res.Path.Cost, truth.Cost)
	}
}
