package experiments

import (
	"time"

	"opaque/internal/gen"
	"opaque/internal/obfuscate"
	"opaque/internal/search"
	"opaque/internal/storage"
)

// E7Scaling measures how the obfuscated path query processor scales with the
// road-network size, for both evaluation strategies. The per-query cost is
// governed by the Lemma 1 search area, not the total network size, so cost
// should grow with the typical ||s,t|| (which grows with the extent) rather
// than with raw node count once queries are distance-banded.
type E7Scaling struct{}

// ID implements Runner.
func (E7Scaling) ID() string { return "E7" }

// Description implements Runner.
func (E7Scaling) Description() string {
	return "Obfuscated query processing cost vs network size, SSMD vs pairwise strategy"
}

// Run implements Runner.
func (E7Scaling) Run(scale Scale) ([]*Table, error) {
	nodeCounts := []int{1000, 4000, 9000}
	if scale == Full {
		nodeCounts = append(nodeCounts, 25000, 64000)
	}
	nQueries := queries(scale, 15, 60)
	const fs, ft = 2, 4

	table := &Table{
		ID:    "E7",
		Title: "Scaling with network size (grid, fS=2 fT=4, distance-banded workload)",
		Columns: []string{
			"nodes", "strategy", "mean settled nodes/query", "mean page faults/query", "mean wall time ms/query",
		},
	}

	for _, nodes := range nodeCounts {
		netCfg := gen.DefaultNetworkConfig()
		netCfg.Kind = gen.Grid
		netCfg.Nodes = nodes
		netCfg.Seed = uint64(7000 + nodes)
		g, err := gen.Generate(netCfg)
		if err != nil {
			return nil, err
		}
		// Keep the query radius a fixed fraction of the extent so the
		// workload is comparable across sizes.
		wl, err := gen.GenerateWorkload(g, gen.WorkloadConfig{
			Kind:        gen.DistanceBand,
			Queries:     nQueries,
			MinDistance: 0.10 * netCfg.Extent,
			MaxDistance: 0.25 * netCfg.Extent,
			Seed:        uint64(7100 + nodes),
		})
		if err != nil {
			return nil, err
		}
		obf, err := obfuscate.New(g, obfuscate.Config{
			Mode:     obfuscate.Independent,
			Cluster:  obfuscate.ClusterNone,
			Selector: defaultBandSelector(g, uint64(7200+nodes)),
			Seed:     uint64(7300 + nodes),
		})
		if err != nil {
			return nil, err
		}
		reqs := requestsFromWorkload(wl, fs, ft)
		plans := make([]obfuscate.Plan, len(reqs))
		for i := range reqs {
			p, err := obf.Obfuscate(reqs[i : i+1])
			if err != nil {
				return nil, err
			}
			plans[i] = p
		}

		// One page layout per graph; each strategy runs over its own warm
		// 128-page pool shared by all of its queries, so the fault column
		// includes cross-query page reuse (E3 measures cold per-query faults).
		store, err := storage.Build(g, storage.DefaultConfig())
		if err != nil {
			return nil, err
		}
		for _, strategy := range []search.Strategy{search.StrategySSMD, search.StrategyPairwise} {
			pool, err := storage.NewBufferPool(128)
			if err != nil {
				return nil, err
			}
			proc := search.NewProcessor(storage.NewPagedGraph(store, pool), search.WithStrategy(strategy))
			var settled, faults, wallMS []float64
			for _, plan := range plans {
				q := plan.Queries[0]
				faultsBefore := pool.Stats().Faults
				start := time.Now()
				res, err := proc.Evaluate(q.Sources, q.Dests)
				if err != nil {
					return nil, err
				}
				wallMS = append(wallMS, float64(time.Since(start).Nanoseconds())/1e6)
				settled = append(settled, float64(res.Stats.SettledNodes))
				faults = append(faults, float64(pool.Stats().Faults-faultsBefore))
			}
			table.AddRow(g.NumNodes(), string(strategy), meanFloat(settled), meanFloat(faults), meanFloat(wallMS))
		}
	}
	table.AddNote("Expectation: SSMD stays below pairwise at every size; per-query cost grows with the (extent-proportional) query radius, roughly quadratically in it, consistent with the O(||s,t||²) model.")
	return []*Table{table}, nil
}
