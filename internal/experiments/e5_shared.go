package experiments

import (
	"opaque/internal/gen"
	"opaque/internal/obfuscate"
	"opaque/internal/privacy"
	"opaque/internal/protocol"
	"opaque/internal/storage"
)

// E5SharedVsIndependent compares the paper's two obfuscated path query
// variants (Section III-C) as the number of concurrently pending users grows:
// total server cost, per-user breach probability, and the number of
// obfuscated queries sent. Shared obfuscation amortises true endpoints across
// users, so it needs fewer fakes for the same protection and the total cost
// grows sublinearly compared to independent obfuscation.
type E5SharedVsIndependent struct{}

// ID implements Runner.
func (E5SharedVsIndependent) ID() string { return "E5" }

// Description implements Runner.
func (E5SharedVsIndependent) Description() string {
	return "Independent vs shared obfuscated path queries as concurrent users grow (Section III-C)"
}

// Run implements Runner.
func (E5SharedVsIndependent) Run(scale Scale) ([]*Table, error) {
	netCfg := gen.DefaultNetworkConfig()
	netCfg.Kind = gen.TigerLike
	netCfg.Nodes = networkNodes(scale, 2500, 30000)
	netCfg.Seed = 505
	g, err := gen.Generate(netCfg)
	if err != nil {
		return nil, err
	}
	eval, err := newPagedEvaluator(g, storage.ConnectivityClustered, 128)
	if err != nil {
		return nil, err
	}

	userCounts := []int{2, 4, 8, 16}
	if scale == Full {
		userCounts = append(userCounts, 32)
	}
	const fs, ft = 4, 4
	adversary := privacy.NewUniformAdversary(g)

	table := &Table{
		ID:    "E5",
		Title: "Independent vs shared obfuscation (fS=fT=4, tiger-like network, " + itoa(g.NumNodes()) + " nodes)",
		Columns: []string{
			"users k", "mode", "obf queries sent", "mean |S|", "mean |T|", "total settled nodes", "total page faults", "mean breach prob", "mean entropy bits",
		},
	}

	for _, k := range userCounts {
		wl, err := gen.GenerateWorkload(g, gen.WorkloadConfig{Kind: gen.Hotspot, Queries: k, Hotspots: 3, HotspotSpread: 0.05, Seed: uint64(600 + k)})
		if err != nil {
			return nil, err
		}
		reqs := requestsFromWorkload(wl, fs, ft)
		for _, mode := range []obfuscate.Mode{obfuscate.Independent, obfuscate.Shared} {
			cfg := obfuscate.Config{
				Mode:           mode,
				Cluster:        obfuscate.ClusterSpatialGreedy,
				Selector:       defaultBandSelector(g, uint64(700+k)),
				MaxClusterSize: 8,
				MaxClusterSpan: 0.3,
				Seed:           uint64(800 + k),
			}
			obf, err := obfuscate.New(g, cfg)
			if err != nil {
				return nil, err
			}
			plan, err := obf.Obfuscate(reqs)
			if err != nil {
				return nil, err
			}
			// Every row starts from a cold buffer pool.
			eval.Reset()
			var sumS, sumT int
			for _, q := range plan.Queries {
				sumS += len(q.Sources)
				sumT += len(q.Dests)
				if _, err := eval.Execute(protocol.ServerQuery{Sources: q.Sources, Dests: q.Dests}); err != nil {
					return nil, err
				}
			}
			settled, faults := eval.Totals()
			rep := adversary.EvaluatePlan(plan)
			table.AddRow(
				k, string(mode),
				len(plan.Queries),
				float64(sumS)/float64(len(plan.Queries)),
				float64(sumT)/float64(len(plan.Queries)),
				settled,
				faults,
				rep.MeanBreach,
				rep.MeanEntropy,
			)
		}
	}
	table.AddNote("Section III-C expectation: shared mode sends fewer obfuscated queries and settles fewer total nodes than independent mode at equal (or better) breach probability, with the gap widening as k grows.")
	return []*Table{table}, nil
}
