package experiments

import (
	"math/rand"
	"time"

	"opaque/internal/ch"
	"opaque/internal/gen"
	"opaque/internal/roadnet"
	"opaque/internal/search"
	"opaque/internal/server"
	"opaque/internal/storage"
)

// E15ManyToMany measures the three ways the server can evaluate a Q(S, T)
// candidate table on one map — SSMD spanning trees, pairwise CH, and the
// many-to-many bucket engine — across table shapes from point queries (1×1)
// to very wide tables (128×128 at full scale). The table's job is to expose
// the crossover the "hybrid" strategy's DefaultCHMaxPairs cutover encodes:
// pairwise CH wins true point queries (its bidirectional stopping rule
// prunes each search; MTM's sweeps run to exhaustion), MTM wins everything
// wide (|S|+|T| upward sweeps against |S|·|T| point queries, from 2×2 up in
// measurements on both graph scales), and SSMD — the paper's evaluation —
// trails both once an overlay exists. The "hybrid route" column states
// where the server's cutover (server.DefaultCHMaxPairs, inclusive)
// actually sends each shape, so an inconsistency between measurement and
// routing is visible in one glance. A final distance-only MTM column shows
// what candidate filtering pays when no caller ever reads the paths.
type E15ManyToMany struct{}

// ID implements Runner.
func (E15ManyToMany) ID() string { return "E15" }

// Description implements Runner.
func (E15ManyToMany) Description() string {
	return "Many-to-many bucket tables on the CH overlay: crossover vs pairwise CH and SSMD across |S|x|T| shapes"
}

// Run implements Runner.
func (E15ManyToMany) Run(scale Scale) ([]*Table, error) {
	nodes := networkNodes(scale, 6000, 50000)
	shapes := [][2]int{{1, 1}, {1, 4}, {2, 2}, {4, 4}, {8, 8}, {16, 16}, {32, 32}}
	if scale == Full {
		shapes = append(shapes, [2]int{64, 64}, [2]int{128, 128})
	}
	reps := queries(scale, 2, 3)

	netCfg := gen.DefaultNetworkConfig()
	netCfg.Kind = gen.TigerLike
	netCfg.Nodes = nodes
	netCfg.Seed = 1515
	g, err := gen.Generate(netCfg)
	if err != nil {
		return nil, err
	}
	acc := storage.NewMemoryGraph(g)

	buildStart := time.Now()
	overlay, err := ch.Build(g)
	if err != nil {
		return nil, err
	}
	buildMS := float64(time.Since(buildStart).Milliseconds())

	wsPool := search.NewWorkspacePool()
	mtm := ch.NewMTM(overlay, wsPool)
	ssmdProc := search.NewProcessor(acc,
		search.WithStrategy(search.StrategySSMD),
		search.WithWorkspacePool(wsPool))
	chProc := search.NewProcessor(acc,
		search.WithStrategy(search.StrategyPointEngine),
		search.WithPointEngine(ch.NewEngine(overlay, wsPool)),
		search.WithWorkspacePool(wsPool))
	mtmProc := search.NewProcessor(acc,
		search.WithStrategy(search.StrategyTableEngine),
		search.WithTableEngine(mtm),
		search.WithWorkspacePool(wsPool))

	tbl := &Table{
		ID:      "E15",
		Title:   "Q(S,T) table evaluation: SSMD vs pairwise CH vs many-to-many buckets (" + itoa(nodes) + " nodes)",
		Columns: []string{"|S|x|T|", "pairs", "ssmd ms", "pairwise-ch ms", "mtm ms", "mtm dist-only ms", "fastest", "hybrid route"},
	}

	rng := rand.New(rand.NewSource(1516))
	pick := func(k int) []roadnet.NodeID {
		out := make([]roadnet.NodeID, k)
		for i := range out {
			out[i] = roadnet.NodeID(rng.Intn(g.NumNodes()))
		}
		return out
	}

	type engine struct {
		name string
		run  func(S, T []roadnet.NodeID) error
	}
	var dst []float64
	engines := []engine{
		{"ssmd", func(S, T []roadnet.NodeID) error { _, err := ssmdProc.Evaluate(S, T); return err }},
		{"pairwise-ch", func(S, T []roadnet.NodeID) error { _, err := chProc.Evaluate(S, T); return err }},
		{"mtm", func(S, T []roadnet.NodeID) error { _, err := mtmProc.Evaluate(S, T); return err }},
		{"mtm dist-only", func(S, T []roadnet.NodeID) error {
			var err error
			dst, _, err = mtm.DistancesInto(dst, S, T)
			return err
		}},
	}

	for _, shape := range shapes {
		ns, nt := shape[0], shape[1]
		// The same endpoint sets feed every engine of one row.
		sets := make([][2][]roadnet.NodeID, reps)
		for r := range sets {
			sets[r] = [2][]roadnet.NodeID{pick(ns), pick(nt)}
		}
		wall := make([]float64, len(engines))
		for ei, e := range engines {
			// One untimed evaluation first, so pool warmup (workspaces, the
			// bucket arena) and cache effects are not charged to whichever
			// engine happens to run first.
			if err := e.run(sets[0][0], sets[0][1]); err != nil {
				return nil, err
			}
			start := time.Now()
			for _, st := range sets {
				if err := e.run(st[0], st[1]); err != nil {
					return nil, err
				}
			}
			wall[ei] = float64(time.Since(start).Microseconds()) / 1000 / float64(reps)
		}
		// The fastest *path-producing* engine decides the row; the
		// distance-only column is informational.
		best := 0
		for ei := 1; ei < 3; ei++ {
			if wall[ei] < wall[best] {
				best = ei
			}
		}
		fastest := engines[best].name
		route := "mtm"
		if ns*nt <= server.DefaultCHMaxPairs {
			route = "ch"
		}
		tbl.AddRow(itoa(ns)+"x"+itoa(nt), ns*nt, wall[0], wall[1], wall[2], wall[3], fastest, route)
	}

	tbl.AddNote("One CH overlay serves the pairwise and MTM engines; contraction took %d ms (offline, persisted in deployments). All engines evaluated identical endpoint sets; times are per table, averaged over %d repetitions.", int(buildMS), reps)
	tbl.AddNote("Expectation: pairwise-ch wins 1x1 (pruned bidirectional searches; mtm sweeps run to exhaustion), mtm wins from 2x2 up and by orders of magnitude on wide tables. The 'hybrid route' column is the server's inclusive DefaultCHMaxPairs = %d cutover, chosen to agree with this table: only point-ish shapes stay pairwise.", server.DefaultCHMaxPairs)
	tbl.AddNote("'mtm dist-only' reuses one output buffer (0 allocs/op steady state) and skips path materialisation — the fast path for distance-only candidate filtering.")
	return []*Table{tbl}, nil
}
