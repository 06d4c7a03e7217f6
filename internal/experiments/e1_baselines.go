package experiments

import (
	"math"

	"opaque/internal/baseline"
	"opaque/internal/gen"
	"opaque/internal/obfsvc"
	"opaque/internal/obfuscate"
	"opaque/internal/roadnet"
	"opaque/internal/search"
	"opaque/internal/storage"
)

// E1Baselines reproduces the Section II / Figure 2 comparison: existing
// location-privacy techniques applied to path queries either return an
// irrelevant path (landmark, cloaking) or return the exact path at a high
// server cost (naive decoy queries), while OPAQUE returns the exact path at a
// reduced cost with the same breach probability.
type E1Baselines struct{}

// ID implements Runner.
func (E1Baselines) ID() string { return "E1" }

// Description implements Runner.
func (E1Baselines) Description() string {
	return "Privacy mechanisms compared: exact-path rate, breach probability and server cost (Figure 2 / Section II)"
}

// Run implements Runner.
func (E1Baselines) Run(scale Scale) ([]*Table, error) {
	fx, err := newFixture(scale, gen.TigerLike, 101)
	if err != nil {
		return nil, err
	}
	g := fx.Graph
	nQueries := queries(scale, 30, 200)
	pairs := fx.Workload
	if len(pairs) > nQueries {
		pairs = pairs[:nQueries]
	}
	fakes := 3 // k decoys for the naive baseline; OPAQUE uses fS=2, fT=2 => same breach 1/4... see note below

	// One paged evaluator serves every mechanism, OPAQUE included, so costs
	// are measured on identical storage; each mechanism's row starts from a
	// cold buffer pool.
	exec := fx.Eval

	// True shortest-path costs as ground truth.
	acc := storage.NewMemoryGraph(g)
	trueCosts := make([]float64, len(pairs))
	for i, p := range pairs {
		d, err := search.DijkstraDistance(acc, p.Source, p.Dest)
		if err != nil {
			return nil, err
		}
		trueCosts[i] = d
	}

	minX, minY, maxX, maxY := g.Bounds()
	extent := math.Max(maxX-minX, maxY-minY)

	opaqueInd, err := newOpaqueMechanism(g, exec, obfuscatorConfig(obfuscate.Independent, defaultBandSelector(g, 77)))
	if err != nil {
		return nil, err
	}

	mechanisms := []baseline.Mechanism{
		baseline.NoPrivacy{Exec: exec},
		baseline.Landmark{Exec: exec, Graph: g, MinShift: 0.03 * extent, MaxShift: 0.10 * extent, Seed: 5},
		baseline.Cloaking{Exec: exec, Graph: g, CloakRadius: 0.05 * extent, Seed: 6},
		baseline.NaiveDecoys{Exec: exec, Graph: g, Decoys: fakes, Seed: 7},
		opaqueInd,
	}

	table := &Table{
		ID:    "E1",
		Title: "Privacy mechanisms on " + string(gen.TigerLike) + " network (" + itoa(g.NumNodes()) + " nodes, " + itoa(len(pairs)) + " queries)",
		Columns: []string{
			"mechanism", "exact-path rate", "mean breach prob", "mean settled nodes/query", "mean page faults/query", "mean candidate pairs",
		},
	}
	for _, m := range mechanisms {
		exec.Reset()
		exact := 0
		var breach, settled, faults, pairsEvaluated []float64
		for i, p := range pairs {
			req := obfuscate.Request{User: obfuscate.UserID(userName(i)), Source: p.Source, Dest: p.Dest, FS: 2, FT: 2}
			out, err := m.Run(req, trueCosts[i])
			if err != nil {
				return nil, err
			}
			if out.ExactPath {
				exact++
			}
			breach = append(breach, out.BreachProbability)
			settled = append(settled, float64(out.ServerSettledNodes))
			faults = append(faults, float64(out.ServerPageFaults))
			pairsEvaluated = append(pairsEvaluated, float64(out.CandidatePairs))
		}
		table.AddRow(
			m.Name(),
			float64(exact)/float64(len(pairs)),
			meanFloat(breach),
			meanFloat(settled),
			meanFloat(faults),
			meanFloat(pairsEvaluated),
		)
	}
	table.AddNote("Paper expectation (Section II): landmark and cloaking rarely return the exact requested path; naive decoys and OPAQUE always do.")
	table.AddNote("OPAQUE (fS=2, fT=2, breach 1/4) should settle fewer nodes per query than naive decoys at comparable breach probability (1/%d), because destination-side fakes share one SSMD spanning tree.", fakes+1)
	return []*Table{table}, nil
}

// obfuscatorConfig is the in-process obfuscator of the experiments: the
// service defaults with the given mode and fake selector, and no batching
// window, since experiments submit synchronous batches.
func obfuscatorConfig(mode obfuscate.Mode, sel obfuscate.EndpointSelector) obfsvc.Config {
	cfg := obfsvc.DefaultConfig()
	cfg.BatchWindow = 0
	cfg.Obfuscation.Mode = mode
	cfg.Obfuscation.Selector = sel
	return cfg
}

// opaqueMechanism adapts the full OPAQUE pipeline — an obfuscator service in
// front of the paged evaluator — to baseline.Mechanism, so E1 tabulates it
// alongside the Section II techniques. Each Run processes the request as a
// batch of one through the obfuscator (independent obfuscation semantics)
// and reads the server cost off the evaluator's totals.
type opaqueMechanism struct {
	svc  *obfsvc.Service
	eval *pagedEvaluator
	name string
}

// newOpaqueMechanism wires an obfuscator service with cfg over eval, named
// "opaque-<mode>".
func newOpaqueMechanism(g *roadnet.Graph, eval *pagedEvaluator, cfg obfsvc.Config) (*opaqueMechanism, error) {
	svc, err := obfsvc.New(g, eval, cfg)
	if err != nil {
		return nil, err
	}
	return &opaqueMechanism{svc: svc, eval: eval, name: "opaque-" + string(cfg.Obfuscation.Mode)}, nil
}

// Name implements baseline.Mechanism.
func (m *opaqueMechanism) Name() string { return m.name }

// Run implements baseline.Mechanism.
func (m *opaqueMechanism) Run(req obfuscate.Request, trueCost float64) (baseline.Outcome, error) {
	settledBefore, faultsBefore := m.eval.Totals()
	results, err := m.svc.ProcessBatch([]obfuscate.Request{req})
	if err != nil {
		return baseline.Outcome{}, err
	}
	settledAfter, faultsAfter := m.eval.Totals()
	res := results[0]
	if res.Err != nil {
		return baseline.Outcome{}, res.Err
	}
	fs, ft := max(req.FS, 1), max(req.FT, 1)
	out := baseline.Outcome{
		Mechanism:          m.name,
		ExactPath:          res.Found,
		ResultCost:         res.Path.Cost,
		TrueCost:           trueCost,
		BreachProbability:  obfuscate.BreachProbability(fs, ft),
		ServerSettledNodes: settledAfter - settledBefore,
		ServerPageFaults:   faultsAfter - faultsBefore,
		CandidatePairs:     fs * ft,
	}
	if !res.Found {
		out.ResultCost = trueCost // unreachable in both views
	}
	return out, nil
}
