package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"opaque/internal/ch"
	"opaque/internal/gen"
	"opaque/internal/roadnet"
	"opaque/internal/search"
	"opaque/internal/storage"
)

// E16LiveUpdates measures what a live weight update costs at every layer of
// the serving stack, against the only alternative without re-customization —
// rebuilding the overlay from scratch:
//
//   - the copy-on-write weight apply (storage.MutableGraph.UpdateWeights,
//     including the incremental content-checksum re-derivation), per update
//     batch size;
//   - the CH re-customization (Overlay.Recustomize: bottom-up triangle pass
//     over the frozen shortcut structure), which is what restores overlay
//     serving after an update;
//   - the full rebuild baseline: the contraction (ch.BuildCustomizable —
//     what the overlay costs to rebuild from scratch).
//
// The speedup column is re-customization against the full rebuild — the
// acceptance bar is ≥ 10x on the full-scale (50k-node) graph; measurements
// land well above it.
// Every re-customized overlay is spot-checked against reference Dijkstra on
// the updated graph before its row is reported, so the table cannot quietly
// measure a broken refresh.
type E16LiveUpdates struct{}

// ID implements Runner.
func (E16LiveUpdates) ID() string { return "E16" }

// Description implements Runner.
func (E16LiveUpdates) Description() string {
	return "Live weight updates: copy-on-write apply + CH re-customization vs full rebuild"
}

// Run implements Runner.
func (E16LiveUpdates) Run(scale Scale) ([]*Table, error) {
	nodes := networkNodes(scale, 6000, 50000)
	batches := []int{1, 16, 256, 4096}
	checks := queries(scale, 20, 50)

	netCfg := gen.DefaultNetworkConfig()
	netCfg.Kind = gen.TigerLike
	netCfg.Nodes = nodes
	netCfg.Seed = 1616
	g, err := gen.Generate(netCfg)
	if err != nil {
		return nil, err
	}

	customStart := time.Now()
	overlay, err := ch.BuildCustomizable(g)
	if err != nil {
		return nil, err
	}
	customMS := float64(time.Since(customStart).Microseconds()) / 1000

	tbl := &Table{
		ID:    "E16",
		Title: "Live weight updates: apply + re-customize vs rebuild (" + itoa(nodes) + " nodes)",
		Columns: []string{"changed arcs", "apply ms", "recustomize ms",
			"rebuild ms", "speedup vs rebuild"},
	}

	mg := storage.NewMutableGraph(g)
	rng := rand.New(rand.NewSource(1617))
	for _, k := range batches {
		changes := make([]roadnet.ArcWeightChange, 0, k)
		base := storage.SnapshotOf(mg).Graph()
		for len(changes) < k {
			v := roadnet.NodeID(rng.Intn(g.NumNodes()))
			arcs := base.Arcs(v)
			if len(arcs) == 0 {
				continue
			}
			a := arcs[rng.Intn(len(arcs))]
			changes = append(changes, roadnet.ArcWeightChange{From: v, To: a.To, NewCost: a.Cost * (0.5 + rng.Float64())})
		}
		applyStart := time.Now()
		if _, err := mg.UpdateWeights(changes); err != nil {
			return nil, err
		}
		applyMS := float64(time.Since(applyStart).Microseconds()) / 1000

		cur := storage.SnapshotOf(mg).Graph()
		recustStart := time.Now()
		fresh, err := overlay.Recustomize(cur)
		if err != nil {
			return nil, err
		}
		recustMS := float64(time.Since(recustStart).Microseconds()) / 1000

		if err := verifyOverlay(fresh, cur, checks, rng); err != nil {
			return nil, err
		}
		overlay = fresh
		tbl.AddRow(k, applyMS, recustMS, customMS, customMS/recustMS)
	}

	tbl.AddNote("apply = storage.MutableGraph.UpdateWeights: copy-on-write arc array + incremental content checksum; queries in flight keep their pinned snapshot.")
	tbl.AddNote("recustomize = ch.Overlay.Recustomize: bottom-up triangle relaxation over the frozen shortcut structure (contraction order and topology reused). Each refreshed overlay was verified against reference Dijkstra on the updated graph (%d sampled pairs per row).", checks)
	tbl.AddNote("rebuild = ch.BuildCustomizable: full re-contraction of the map. Acceptance bar: recustomize >= 10x faster than the rebuild at full scale.")
	return []*Table{tbl}, nil
}

// verifyOverlay cross-checks n random point queries of the overlay — 1×1
// distance tables — against reference Dijkstra on g.
func verifyOverlay(o *ch.Overlay, g *roadnet.Graph, n int, rng *rand.Rand) error {
	acc := storage.NewMemoryGraph(g)
	mtm := ch.NewMTM(o, nil)
	cell := make([]float64, 1)
	for i := 0; i < n; i++ {
		s := roadnet.NodeID(rng.Intn(g.NumNodes()))
		d := roadnet.NodeID(rng.Intn(g.NumNodes()))
		want, _, err := search.ReferenceDijkstra(acc, s, d)
		if err != nil {
			return err
		}
		wantDist := want.Cost
		if len(want.Nodes) == 0 && s != d {
			wantDist = math.Inf(1)
		}
		cell, _, err = mtm.DistancesInto(cell, []roadnet.NodeID{s}, []roadnet.NodeID{d})
		if err != nil {
			return err
		}
		if got := cell[0]; got != wantDist && math.Abs(got-wantDist) > 1e-9*(1+math.Abs(wantDist)) {
			return fmt.Errorf("experiments: E16 verification failed: pair (%d,%d) overlay says %v, reference says %v", s, d, got, wantDist)
		}
	}
	return nil
}
