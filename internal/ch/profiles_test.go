package ch

import (
	"math"
	"math/rand"
	"testing"

	"opaque/internal/costmodel"
	"opaque/internal/gen"
	"opaque/internal/roadnet"
	"opaque/internal/search"
	"opaque/internal/storage"
)

func profileSetGraph(t *testing.T) *roadnet.Graph {
	t.Helper()
	cfg := gen.DefaultNetworkConfig()
	cfg.Kind = gen.TigerLike
	cfg.Nodes = 600
	cfg.Seed = 4242
	g, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestProfileSetLayersAnswerTheirMetric(t *testing.T) {
	g := profileSetGraph(t)
	base, err := BuildCustomizable(g)
	if err != nil {
		t.Fatal(err)
	}
	ps := NewProfileSet(8)
	rng := rand.New(rand.NewSource(55))
	for _, p := range costmodel.TimeOfDayProfiles() {
		pg, err := p.Apply(g)
		if err != nil {
			t.Fatal(err)
		}
		layer, err := ps.Install(p.Name, base, pg)
		if err != nil {
			t.Fatal(err)
		}
		if layer.TopologyChecksum() != base.TopologyChecksum() {
			t.Fatalf("%s: layer does not share the frozen topology", p.Name)
		}
		// Every layer must answer distances for its own profile metric,
		// verified against reference Dijkstra on the profile graph.
		acc := storage.NewMemoryGraph(pg)
		mtm := NewMTM(layer, nil)
		for i := 0; i < 15; i++ {
			s := roadnet.NodeID(rng.Intn(g.NumNodes()))
			d := roadnet.NodeID(rng.Intn(g.NumNodes()))
			want, _, err := search.ReferenceDijkstra(acc, s, d)
			if err != nil {
				t.Fatal(err)
			}
			wantDist := want.Cost
			if len(want.Nodes) == 0 && s != d {
				wantDist = math.Inf(1)
			}
			got, _, err := pointDistance(mtm, s, d)
			if err != nil {
				t.Fatal(err)
			}
			if got != wantDist && math.Abs(got-wantDist) > 1e-9*(1+math.Abs(wantDist)) {
				t.Fatalf("%s: pair (%d,%d) layer says %v, reference says %v", p.Name, s, d, got, wantDist)
			}
		}
	}
	if st := ps.Stats(); st.Layers != 4 || st.Misses != 4 {
		t.Errorf("stats = %+v, want 4 layers / 4 misses", st)
	}
}

func TestProfileSetLRUAndStats(t *testing.T) {
	g := profileSetGraph(t)
	base, err := BuildCustomizable(g)
	if err != nil {
		t.Fatal(err)
	}
	ps := NewProfileSet(2)
	var evicted []string
	ps.SetOnEvict(func(name string) { evicted = append(evicted, name) })

	uniformGraph := func(m float64) *roadnet.Graph {
		p := costmodel.WeightProfile{
			Name:       "u",
			Multiplier: func(*roadnet.Graph, roadnet.NodeID, roadnet.NodeID) float64 { return m },
		}
		pg, err := p.Apply(g)
		if err != nil {
			t.Fatal(err)
		}
		return pg
	}

	if _, err := ps.Install("a", base, uniformGraph(0.5)); err != nil {
		t.Fatal(err)
	}
	if _, err := ps.Install("b", base, uniformGraph(0.6)); err != nil {
		t.Fatal(err)
	}
	// Touch a so b becomes the LRU victim when c lands.
	if _, _, ok := ps.Layer("a"); !ok {
		t.Fatal("layer a missing")
	}
	if _, err := ps.Install("c", base, uniformGraph(0.7)); err != nil {
		t.Fatal(err)
	}
	if len(evicted) != 1 || evicted[0] != "b" {
		t.Errorf("evicted %v, want [b]", evicted)
	}
	if _, _, ok := ps.Layer("b"); ok {
		t.Error("evicted layer b still resident")
	}
	st := ps.Stats()
	if st.Layers != 2 || st.Evictions != 1 {
		t.Errorf("stats = %+v, want 2 layers / 1 eviction", st)
	}
	// One hit (Layer("a")), three Installs counted as misses; the failed
	// Layer("b") probe counts nothing — its rebuild would count via Install.
	if st.Hits != 1 || st.Misses != 3 {
		t.Errorf("hits=%d misses=%d, want 1/3", st.Hits, st.Misses)
	}
	names := ps.Names()
	if len(names) != 2 || names[len(names)-1] != "c" {
		t.Errorf("names = %v, want c most recently used", names)
	}
}

func TestProfileSetRejectsForeignTopology(t *testing.T) {
	g := profileSetGraph(t)
	base, err := BuildCustomizable(g)
	if err != nil {
		t.Fatal(err)
	}
	ps := NewProfileSet(4)
	cfg := gen.DefaultNetworkConfig()
	cfg.Kind = gen.TigerLike
	cfg.Nodes = 300
	cfg.Seed = 777
	other, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ps.Install("x", base, other); err == nil {
		t.Error("installing a layer for a different topology must fail")
	}
}
