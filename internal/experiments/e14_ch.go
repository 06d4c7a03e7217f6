package experiments

import (
	"bytes"
	"time"

	"opaque/internal/ch"
	"opaque/internal/gen"
	"opaque/internal/roadnet"
	"opaque/internal/search"
	"opaque/internal/storage"
)

// E14ContractionHierarchy measures the preprocessed-query trade the CH
// overlay makes: an offline contraction pass (seconds, persisted once) buys
// point queries whose search space no longer grows with the map. Two tables:
//
//   - preprocessing: contraction time, shortcut counts, hierarchy depth and
//     the persisted overlay size per graph size, plus the save/load
//     round-trip time — the cost side of the ledger;
//   - queries: uniform (map-scale) point queries per engine — workspace
//     Dijkstra, ALT with 8 landmarks, and on the overlay a 1×1 many-to-many
//     table, distance-only and with full path unpacking — reporting wall
//     time, queries/sec, settled nodes per query and speedup over Dijkstra.
//
// Uniform pairs are deliberately the opposite regime from E13's local
// queries: long trips are where flat searches flood the map and where the
// hierarchy's upward search spaces pay off; BenchmarkCHQuery pins the same
// contrast on the 50k-node benchmark graph.
type E14ContractionHierarchy struct{}

// ID implements Runner.
func (E14ContractionHierarchy) ID() string { return "E14" }

// Description implements Runner.
func (E14ContractionHierarchy) Description() string {
	return "Contraction-hierarchy overlay: preprocessing cost and point-query speedup vs Dijkstra/ALT"
}

// Run implements Runner.
func (E14ContractionHierarchy) Run(scale Scale) ([]*Table, error) {
	sizes := []int{networkNodes(scale, 2500, 10000), networkNodes(scale, 10000, 50000)}
	iters := queries(scale, 300, 1000)

	prep := &Table{
		ID:      "E14",
		Title:   "CH preprocessing: contraction cost and overlay size",
		Columns: []string{"nodes", "arcs", "build ms", "shortcuts", "shortcut/arc", "max level", "overlay KiB", "save+load ms"},
	}
	qt := &Table{
		ID:      "E14q",
		Title:   "CH point queries vs flat engines (uniform pairs, " + itoa(iters) + " queries per engine)",
		Columns: []string{"nodes", "engine", "wall ms", "queries/sec", "settled/query", "speedup"},
	}

	// One workspace serves every flat-engine run; it grows to the largest
	// graph and is released once, so the loop does not pin one workspace per
	// size for the whole experiment.
	w := search.AcquireWorkspace(0)
	defer w.Release()

	for _, nodes := range sizes {
		netCfg := gen.DefaultNetworkConfig()
		netCfg.Kind = gen.TigerLike
		netCfg.Nodes = nodes
		netCfg.Seed = 1414
		g, err := gen.Generate(netCfg)
		if err != nil {
			return nil, err
		}
		wl, err := gen.GenerateWorkload(g, gen.WorkloadConfig{
			Kind:    gen.Uniform,
			Queries: queries(scale, 64, 256),
			Seed:    1415,
		})
		if err != nil {
			return nil, err
		}
		acc := storage.NewMemoryGraph(g)

		buildStart := time.Now()
		overlay, err := ch.BuildCustomizable(g)
		if err != nil {
			return nil, err
		}
		buildMS := float64(time.Since(buildStart).Milliseconds())

		var buf bytes.Buffer
		rtStart := time.Now()
		if err := ch.Write(overlay, &buf); err != nil {
			return nil, err
		}
		reloaded, err := ch.Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			return nil, err
		}
		rtMS := float64(time.Since(rtStart).Milliseconds())
		prep.AddRow(g.NumNodes(), g.NumArcs(), buildMS, overlay.NumShortcuts(),
			float64(overlay.NumShortcuts())/float64(overlay.NumOriginalArcs()),
			overlay.MaxLevel(), float64(buf.Len())/1024, rtMS)

		lm, err := search.PrepareLandmarks(acc, 8, search.LandmarksFarthest)
		if err != nil {
			return nil, err
		}
		mtm := ch.NewMTM(reloaded, nil) // query the round-tripped overlay
		cell := make([]float64, 1)

		type engine struct {
			name string
			run  func(s, d roadnet.NodeID) (search.Stats, error)
		}
		engines := []engine{
			{"workspace dijkstra", func(s, d roadnet.NodeID) (search.Stats, error) {
				_, st, err := w.DijkstraDistance(acc, s, d)
				return st, err
			}},
			{"ALT (8 landmarks)", func(s, d roadnet.NodeID) (search.Stats, error) {
				_, st, err := w.AStarALT(acc, lm, s, d)
				return st, err
			}},
			{"CH distance", func(s, d roadnet.NodeID) (search.Stats, error) {
				_, st, err := mtm.DistancesInto(cell, []roadnet.NodeID{s}, []roadnet.NodeID{d})
				return st, err
			}},
			{"CH full path", func(s, d roadnet.NodeID) (search.Stats, error) {
				tbl, err := mtm.Table([]roadnet.NodeID{s}, []roadnet.NodeID{d})
				if err != nil {
					return search.Stats{}, err
				}
				tbl.Path(0, 0)
				return tbl.Stats(), nil
			}},
		}

		baseWall := time.Duration(0)
		for ei, e := range engines {
			var settled int
			start := time.Now()
			for i := 0; i < iters; i++ {
				pr := wl[i%len(wl)]
				st, err := e.run(pr.Source, pr.Dest)
				if err != nil {
					return nil, err
				}
				settled += st.SettledNodes
			}
			wall := time.Since(start)
			if ei == 0 {
				baseWall = wall
			}
			speedup := 0.0
			if wall > 0 {
				speedup = baseWall.Seconds() / wall.Seconds()
			}
			qt.AddRow(g.NumNodes(), e.name, float64(wall.Milliseconds()),
				float64(iters)/wall.Seconds(), float64(settled)/float64(iters), speedup)
		}
	}

	prep.AddNote("Contraction is a one-off offline pass (persist with cmd/opaque-preprocess); save+load measures the OCH1 round-trip through memory. shortcut/arc is the arc-count inflation the hierarchy costs.")
	qt.AddNote("Uniform pairs span the whole map, the regime where Dijkstra's search ball covers a large fraction of the graph. Expectation: CH settles orders of magnitude fewer nodes and exceeds 5x Dijkstra throughput on the larger graph; ALT lands in between; path unpacking adds a modest constant over distance-only CH.")
	qt.AddNote("CH rows query the overlay after a Write/Read round-trip, so the table also witnesses persistence correctness. Each CH query is a 1x1 many-to-many table, the shape every overlay query takes in the server.")
	return []*Table{prep, qt}, nil
}
