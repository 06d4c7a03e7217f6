package experiments

import (
	"time"

	"opaque/internal/gen"
	"opaque/internal/obfsvc"
	"opaque/internal/obfuscate"
	"opaque/internal/storage"
)

// E6ObfuscatorOverhead measures the Section IV claim that centralized
// obfuscation at the trusted middlebox is efficient: the time the obfuscator
// spends clustering, picking fakes and filtering results is small compared to
// the server's path-search time, across batch sizes.
type E6ObfuscatorOverhead struct{}

// ID implements Runner.
func (E6ObfuscatorOverhead) ID() string { return "E6" }

// Description implements Runner.
func (E6ObfuscatorOverhead) Description() string {
	return "Obfuscator overhead (clustering + fake selection + filtering) vs server search time across batch sizes (Section IV)"
}

// Run implements Runner.
func (E6ObfuscatorOverhead) Run(scale Scale) ([]*Table, error) {
	netCfg := gen.DefaultNetworkConfig()
	netCfg.Kind = gen.Grid
	netCfg.Nodes = networkNodes(scale, 2500, 30000)
	netCfg.Seed = 606
	g, err := gen.Generate(netCfg)
	if err != nil {
		return nil, err
	}

	batchSizes := []int{8, 16, 32}
	if scale == Full {
		batchSizes = append(batchSizes, 64, 128, 256)
	}

	table := &Table{
		ID:    "E6",
		Title: "Obfuscator overhead vs server processing time (shared mode, fS=fT=4)",
		Columns: []string{
			"batch size", "obf queries", "obfuscation ms", "filtering ms", "server ms", "obfuscator share of total",
		},
	}

	for _, batch := range batchSizes {
		eval, err := newPagedEvaluator(g, storage.ConnectivityClustered, 256)
		if err != nil {
			return nil, err
		}
		cfg := obfuscatorConfig(obfuscate.Shared, defaultBandSelector(g, uint64(900+batch)))
		cfg.Obfuscation.MaxClusterSize = 8
		svc, err := obfsvc.New(g, eval, cfg)
		if err != nil {
			return nil, err
		}
		wl, err := gen.GenerateWorkload(g, gen.WorkloadConfig{Kind: gen.Uniform, Queries: batch, Seed: uint64(1000 + batch)})
		if err != nil {
			return nil, err
		}
		reqs := requestsFromWorkload(wl, 4, 4)

		wallStart := time.Now()
		if _, err := svc.ProcessBatch(reqs); err != nil {
			return nil, err
		}
		wall := time.Since(wallStart)

		st := svc.Stats()
		obfMS := float64(st.ObfuscationNanos) / 1e6
		filtMS := float64(st.FilterNanos) / 1e6
		serverMS := float64(wall.Nanoseconds())/1e6 - obfMS - filtMS
		if serverMS < 0 {
			serverMS = 0
		}
		share := 0.0
		if wall > 0 {
			share = (obfMS + filtMS) / (float64(wall.Nanoseconds()) / 1e6)
		}
		table.AddRow(batch, st.ObfuscatedSent, obfMS, filtMS, serverMS, share)
	}
	table.AddNote("Section IV expectation: the obfuscator's share of end-to-end time stays small (well under half) and does not grow faster than the batch size.")
	return []*Table{table}, nil
}
