package experiments

import (
	"opaque/internal/costmodel"
	"opaque/internal/gen"
	"opaque/internal/obfuscate"
	"opaque/internal/protocol"
	"opaque/internal/storage"
)

// E3CostModel validates Lemma 1: the measured processing cost of an
// obfuscated path query Q(S, T) (settled nodes and page faults under the
// connectivity-clustered layout) is proportional to
// Σ_{s∈S} max_{t∈T} ||s,t||². It also runs the storage ablation: with a
// random node-to-page assignment the page-fault count no longer tracks the
// covered area, which is why the paper's cost argument assumes clustered
// storage.
type E3CostModel struct{}

// ID implements Runner.
func (E3CostModel) ID() string { return "E3" }

// Description implements Runner.
func (E3CostModel) Description() string {
	return "Lemma 1: measured cost vs Σ_s max_t ||s,t||² model, clustered vs random page layout"
}

// Run implements Runner.
func (E3CostModel) Run(scale Scale) ([]*Table, error) {
	netCfg := gen.DefaultNetworkConfig()
	netCfg.Kind = gen.Grid
	netCfg.Nodes = networkNodes(scale, 2500, 40000)
	netCfg.Seed = 303
	g, err := gen.Generate(netCfg)
	if err != nil {
		return nil, err
	}
	wl, err := gen.GenerateWorkload(g, gen.WorkloadConfig{Kind: gen.Uniform, Queries: queries(scale, 25, 150), Seed: 304})
	if err != nil {
		return nil, err
	}
	sizes := [][2]int{{1, 1}, {2, 2}, {2, 4}, {4, 4}}
	if scale == Full {
		sizes = append(sizes, [2]int{4, 8}, [2]int{8, 8})
	}

	table := &Table{
		ID:    "E3",
		Title: "Lemma 1 cost model calibration (grid network, " + itoa(g.NumNodes()) + " nodes)",
		Columns: []string{
			"|S|", "|T|", "mean model cost (Euclid)", "mean settled nodes", "corr(model, settled)", "mean page faults (ccam)", "corr(model, faults ccam)", "mean page faults (random)", "corr(model, faults random)",
		},
	}

	dist := costmodel.EuclideanDistance(g)

	for _, sz := range sizes {
		fs, ft := sz[0], sz[1]
		obf, err := obfuscate.New(g, obfuscate.Config{
			Mode:     obfuscate.Independent,
			Cluster:  obfuscate.ClusterNone,
			Selector: defaultBandSelector(g, uint64(31+fs*7+ft)),
			Seed:     uint64(fs*13 + ft),
		})
		if err != nil {
			return nil, err
		}
		srvCCAM, err := newPagedEvaluator(g, storage.ConnectivityClustered, 64)
		if err != nil {
			return nil, err
		}
		srvRandom, err := newPagedEvaluator(g, storage.RandomAssignment, 64)
		if err != nil {
			return nil, err
		}

		var modelSamples, settledSamples, faultCCAM, faultRandom []float64
		for i, p := range wl {
			req := obfuscate.Request{User: obfuscate.UserID(userName(i)), Source: p.Source, Dest: p.Dest, FS: fs, FT: ft}
			plan, err := obf.Obfuscate([]obfuscate.Request{req})
			if err != nil {
				return nil, err
			}
			q := plan.Queries[0]
			model, err := costmodel.ObfuscatedQueryCost(dist, q.Sources, q.Dests)
			if err != nil {
				return nil, err
			}
			// Every evaluation starts from a cold buffer pool, so the fault
			// count equals the number of distinct pages the search touches —
			// the quantity the CCAM area argument of Lemma 1 is about (a warm
			// shared pool would hide it behind cross-query reuse, which E7
			// measures instead).
			srvCCAM.Reset()
			replyC, err := srvCCAM.Execute(protocol.ServerQuery{Sources: q.Sources, Dests: q.Dests})
			if err != nil {
				return nil, err
			}
			srvRandom.Reset()
			replyR, err := srvRandom.Execute(protocol.ServerQuery{Sources: q.Sources, Dests: q.Dests})
			if err != nil {
				return nil, err
			}
			modelSamples = append(modelSamples, model)
			settledSamples = append(settledSamples, float64(replyC.SettledNodes))
			faultCCAM = append(faultCCAM, float64(replyC.PageFaults))
			faultRandom = append(faultRandom, float64(replyR.PageFaults))
		}
		calSettled := costmodel.Calibrate(pairSamples(modelSamples, settledSamples))
		calCCAM := costmodel.Calibrate(pairSamples(modelSamples, faultCCAM))
		calRandom := costmodel.Calibrate(pairSamples(modelSamples, faultRandom))
		table.AddRow(
			fs, ft,
			meanFloat(modelSamples),
			meanFloat(settledSamples), calSettled.Correlation,
			meanFloat(faultCCAM), calCCAM.Correlation,
			meanFloat(faultRandom), calRandom.Correlation,
		)
	}
	table.AddNote("Lemma 1 expectation: settled nodes and clustered-layout page faults correlate strongly (>0.7) with Σ_s max_t ||s,t||²; the random layout's faults grow with settled nodes but with a much larger constant (every expansion touches a new page).")
	return []*Table{table}, nil
}

func pairSamples(model, measured []float64) []costmodel.Sample {
	n := len(model)
	if len(measured) < n {
		n = len(measured)
	}
	out := make([]costmodel.Sample, n)
	for i := 0; i < n; i++ {
		out[i] = costmodel.Sample{Model: model[i], Measured: measured[i]}
	}
	return out
}
