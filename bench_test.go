// Benchmark harness for the OPAQUE reproduction.
//
// One benchmark per experiment of DESIGN.md §5 / EXPERIMENTS.md (E1–E15): each
// runs the corresponding experiment at small scale and reports the table it
// produces (with -v, via b.Log), so `go test -bench=.` regenerates every
// figure of the reproduction. Micro-benchmarks of the underlying primitives
// (Dijkstra, SSMD, the obfuscator, the end-to-end pipeline) follow, so the
// per-operation costs behind the experiment tables are visible too.
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// Run a single experiment table at full (paper) scale:
//
//	go run ./cmd/opaque-bench -exp E5 -scale full
package opaque

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"opaque/internal/ch"
	"opaque/internal/experiments"
	"opaque/internal/gen"
	"opaque/internal/obfuscate"
	"opaque/internal/protocol"
	"opaque/internal/roadnet"
	"opaque/internal/search"
	"opaque/internal/server"
	"opaque/internal/storage"
)

// benchmarkExperiment runs one experiment per iteration and logs its tables.
func benchmarkExperiment(b *testing.B, id string) {
	b.Helper()
	runner, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tables, err := runner.Run(experiments.Small)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, tbl := range tables {
				b.Log("\n" + tbl.String())
			}
		}
	}
}

// Experiment benchmarks (one per table of EXPERIMENTS.md).

func BenchmarkE1Baselines(b *testing.B)             { benchmarkExperiment(b, "E1") }
func BenchmarkE2Breach(b *testing.B)                { benchmarkExperiment(b, "E2") }
func BenchmarkE3CostModel(b *testing.B)             { benchmarkExperiment(b, "E3") }
func BenchmarkE4SSMD(b *testing.B)                  { benchmarkExperiment(b, "E4") }
func BenchmarkE5SharedVsIndependent(b *testing.B)   { benchmarkExperiment(b, "E5") }
func BenchmarkE6ObfuscatorOverhead(b *testing.B)    { benchmarkExperiment(b, "E6") }
func BenchmarkE7Scaling(b *testing.B)               { benchmarkExperiment(b, "E7") }
func BenchmarkE8Strategies(b *testing.B)            { benchmarkExperiment(b, "E8") }
func BenchmarkE9Collusion(b *testing.B)             { benchmarkExperiment(b, "E9") }
func BenchmarkE10Linkage(b *testing.B)              { benchmarkExperiment(b, "E10") }
func BenchmarkE11ServerLog(b *testing.B)            { benchmarkExperiment(b, "E11") }
func BenchmarkE12BatchThroughput(b *testing.B)      { benchmarkExperiment(b, "E12") }
func BenchmarkE13WorkspaceHotPath(b *testing.B)     { benchmarkExperiment(b, "E13") }
func BenchmarkE14ContractionHierarchy(b *testing.B) { benchmarkExperiment(b, "E14") }
func BenchmarkE15ManyToMany(b *testing.B)           { benchmarkExperiment(b, "E15") }
func BenchmarkE16LiveUpdates(b *testing.B)          { benchmarkExperiment(b, "E16") }

// Micro-benchmarks of the primitives behind the experiments.

// benchGraph returns a mid-sized grid and a workload, shared by the
// micro-benchmarks; sizes are chosen so a single iteration stays in the
// low-millisecond range.
func benchGraph(b *testing.B, nodes int) (*Graph, []QueryPair) {
	b.Helper()
	cfg := DefaultNetworkConfig()
	cfg.Nodes = nodes
	cfg.Seed = 201
	g, err := GenerateNetwork(cfg)
	if err != nil {
		b.Fatal(err)
	}
	wl, err := GenerateWorkload(g, WorkloadConfig{Kind: "uniform", Queries: 64, Seed: 202})
	if err != nil {
		b.Fatal(err)
	}
	return g, wl
}

func BenchmarkDijkstraPointToPoint(b *testing.B) {
	g, wl := benchGraph(b, 10000)
	acc := storage.NewMemoryGraph(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr := wl[i%len(wl)]
		if _, _, err := search.Dijkstra(acc, pr.Source, pr.Dest); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAStarPointToPoint(b *testing.B) {
	g, wl := benchGraph(b, 10000)
	acc := storage.NewMemoryGraph(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr := wl[i%len(wl)]
		if _, _, err := search.AStar(acc, pr.Source, pr.Dest); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSSMDByDestinations shows the Section III-B effect directly: cost
// of one SSMD search as |T| grows with destinations clustered near the true
// one.
func BenchmarkSSMDByDestinations(b *testing.B) {
	g, wl := benchGraph(b, 10000)
	acc := storage.NewMemoryGraph(g)
	for _, k := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("T=%d", k), func(b *testing.B) {
			// Pre-build destination sets.
			dests := make([][]NodeID, len(wl))
			for i, pr := range wl {
				n := g.Node(pr.Dest)
				near := g.NodesWithin(n.X, n.Y, 8000)
				set := []NodeID{pr.Dest}
				for _, id := range near {
					if id != pr.Dest && len(set) < k {
						set = append(set, id)
					}
				}
				dests[i] = set
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pr := wl[i%len(wl)]
				if _, err := search.SSMD(acc, pr.Source, dests[i%len(wl)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkObfuscatedQueryEvaluation compares the two server strategies on
// the same obfuscated queries (|S|=|T|=4).
func BenchmarkObfuscatedQueryEvaluation(b *testing.B) {
	g, wl := benchGraph(b, 10000)
	minX, minY, maxX, maxY := g.Bounds()
	extent := math.Max(maxX-minX, maxY-minY)
	obf := obfuscate.MustNew(g, obfuscate.Config{
		Mode:     obfuscate.Independent,
		Cluster:  obfuscate.ClusterNone,
		Selector: obfuscate.MustNewRingBandSelector(0.02*extent, 0.15*extent, 203),
		Seed:     204,
	})
	queries := make([]obfuscate.ObfuscatedQuery, len(wl))
	for i, pr := range wl {
		plan, err := obf.Obfuscate([]obfuscate.Request{{User: "bench", Source: pr.Source, Dest: pr.Dest, FS: 4, FT: 4}})
		if err != nil {
			b.Fatal(err)
		}
		queries[i] = plan.Queries[0]
	}
	acc := storage.NewMemoryGraph(g)
	for _, strat := range []search.Strategy{search.StrategySSMD, search.StrategyPairwise} {
		b.Run(string(strat), func(b *testing.B) {
			proc := search.NewProcessor(acc, search.WithStrategy(strat))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := queries[i%len(queries)]
				if _, err := proc.Evaluate(q.Sources, q.Dests); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkObfuscation measures the obfuscator-side cost of turning a batch
// of 32 requests into obfuscated queries, for both variants.
func BenchmarkObfuscation(b *testing.B) {
	g, wl := benchGraph(b, 10000)
	minX, minY, maxX, maxY := g.Bounds()
	extent := math.Max(maxX-minX, maxY-minY)
	batch := make([]obfuscate.Request, 32)
	for i := 0; i < 32; i++ {
		pr := wl[i%len(wl)]
		batch[i] = obfuscate.Request{User: obfuscate.UserID(fmt.Sprintf("u%d", i)), Source: pr.Source, Dest: pr.Dest, FS: 4, FT: 4}
	}
	for _, mode := range []obfuscate.Mode{obfuscate.Independent, obfuscate.Shared} {
		b.Run(string(mode), func(b *testing.B) {
			obf := obfuscate.MustNew(g, obfuscate.Config{
				Mode:           mode,
				Cluster:        obfuscate.ClusterSpatialGreedy,
				Selector:       obfuscate.MustNewRingBandSelector(0.02*extent, 0.15*extent, 205),
				MaxClusterSize: 8,
				MaxClusterSpan: 0.3,
				Seed:           206,
			})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := obf.Obfuscate(batch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEndToEndPipeline measures a full client→obfuscator→server→client
// round trip for a batch of 16 users through the in-process system.
func BenchmarkEndToEndPipeline(b *testing.B) {
	g, wl := benchGraph(b, 10000)
	sys, err := NewSystem(g, DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	batch := make([]Request, 16)
	for i := 0; i < 16; i++ {
		pr := wl[i%len(wl)]
		batch[i] = Request{User: obfuscate.UserID(fmt.Sprintf("u%d", i)), Source: pr.Source, Dest: pr.Dest, FS: 3, FT: 3}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := sys.ProcessBatch(batch)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
	}
}

// BenchmarkBatchedThroughput is the headline batch-engine measurement: one
// shared-mode batching window (overlapping sources from sticky shared
// obfuscation) evaluated query-by-query with Evaluate versus as one
// EvaluateBatch call on a server with the worker pool and SSMD tree cache
// enabled. Each iteration processes the whole window; the queries/sec metric
// makes the throughput ratio directly readable. The batched variant should
// exceed sequential by well over 1.5x on any multi-core machine (parallelism
// across the window plus tree reuse across iterations).
func BenchmarkBatchedThroughput(b *testing.B) {
	g, wl := benchGraph(b, 10000)
	minX, minY, maxX, maxY := g.Bounds()
	extent := math.Max(maxX-minX, maxY-minY)
	obf := obfuscate.MustNew(g, obfuscate.Config{
		Mode:           obfuscate.Shared,
		Cluster:        obfuscate.ClusterSpatialGreedy,
		Selector:       obfuscate.NewStickySelector(obfuscate.MustNewRingBandSelector(0.02*extent, 0.15*extent, 207), 0),
		MaxClusterSize: 8,
		MaxClusterSpan: 0.3,
		Seed:           208,
	})
	batch := make([]obfuscate.Request, 32)
	for i := range batch {
		pr := wl[i%len(wl)]
		batch[i] = obfuscate.Request{User: obfuscate.UserID(fmt.Sprintf("u%d", i)), Source: pr.Source, Dest: pr.Dest, FS: 4, FT: 4}
	}
	plan, err := obf.Obfuscate(batch)
	if err != nil {
		b.Fatal(err)
	}
	window := make([]protocol.ServerQuery, len(plan.Queries))
	for i, q := range plan.Queries {
		window[i] = protocol.ServerQuery{Sources: q.Sources, Dests: q.Dests}
	}

	newServer := func(batched bool) *server.Server {
		cfg := server.DefaultConfig()
		cfg.KeepLog = false
		if batched {
			cfg.BatchWorkers = runtime.GOMAXPROCS(0)
			cfg.TreeCache = 256
			cfg.MaxConcurrentSearches = 2 * runtime.GOMAXPROCS(0)
		}
		return server.MustNew(g, cfg)
	}
	reportQPS := func(b *testing.B) {
		if s := b.Elapsed().Seconds(); s > 0 {
			b.ReportMetric(float64(b.N*len(window))/s, "queries/sec")
		}
	}

	b.Run("sequential", func(b *testing.B) {
		srv := newServer(false)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, q := range window {
				if _, err := srv.Evaluate(q); err != nil {
					b.Fatal(err)
				}
			}
		}
		reportQPS(b)
	})
	b.Run("batched", func(b *testing.B) {
		srv := newServer(true)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, r := range srv.EvaluateBatch(window) {
				if r.Err != nil {
					b.Fatal(r.Err)
				}
			}
		}
		reportQPS(b)
		b.Logf("tree cache hit ratio: %.3f", srv.Metrics().Gauge("tree_cache_hit_ratio"))
	})
}

// BenchmarkWorkspaceReuse is the headline hot-path measurement of the
// epoch-stamped search workspaces: local point queries on a large graph,
// where the fresh-slice implementation's O(n) per-query setup (two Inf-filled
// label arrays plus a map-indexed heap) dominates the O(touched-nodes)
// search itself.
//
//   - fresh-slices runs search.ReferenceDijkstra, the pre-workspace code
//     preserved in internal/search/reference.go;
//   - pooled-path runs the workspace-backed search.Dijkstra (allocations
//     left are the result path and SSMD bookkeeping only);
//   - pooled-distance runs search.DijkstraDistance, which terminates on
//     settling the destination, skips path reconstruction and reports
//     0 allocs/op in steady state.
//
// Expectation: pooled-path beats fresh-slices by well over 2x on this graph
// size, and pooled-distance shows 0 allocs/op.
func BenchmarkWorkspaceReuse(b *testing.B) {
	cfg := DefaultNetworkConfig()
	cfg.Nodes = 50000
	cfg.Seed = 209
	g, err := GenerateNetwork(cfg)
	if err != nil {
		b.Fatal(err)
	}
	minX, minY, maxX, maxY := g.Bounds()
	extent := math.Max(maxX-minX, maxY-minY)
	wl, err := GenerateWorkload(g, WorkloadConfig{
		Kind:        "distanceband",
		Queries:     128,
		MinDistance: 0.01 * extent,
		MaxDistance: 0.05 * extent,
		Seed:        210,
	})
	if err != nil {
		b.Fatal(err)
	}
	acc := storage.NewMemoryGraph(g)

	b.Run("fresh-slices", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pr := wl[i%len(wl)]
			if _, _, err := search.ReferenceDijkstra(acc, pr.Source, pr.Dest); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pooled-path", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pr := wl[i%len(wl)]
			if _, _, err := search.Dijkstra(acc, pr.Source, pr.Dest); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pooled-distance", func(b *testing.B) {
		// Hold one workspace for the whole loop, the way a server worker
		// does: the relax loop must report 0 allocs/op.
		w := search.AcquireWorkspace(acc.NumNodes())
		defer w.Release()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pr := wl[i%len(wl)]
			if _, _, err := w.DijkstraDistance(acc, pr.Source, pr.Dest); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// chBench caches the 50k-node benchmark graph, its uniform workload and the
// contraction-hierarchy overlay across benchmark invocations: the one-off
// contraction pass (seconds) must not be charged to — or repeated for — the
// per-query measurements.
var chBench struct {
	once    sync.Once
	err     error
	graph   *Graph
	wl      []QueryPair
	overlay *ch.Overlay
}

func chBenchSetup(b *testing.B) (*Graph, []QueryPair, *ch.Overlay) {
	b.Helper()
	chBench.once.Do(func() {
		// Tiger-like topology, the repository's realistic road-network
		// generator: hierarchies thrive on the highway structure real maps
		// have (uniform grids, with their massive tie plateaus, understate
		// both engines' real-world gap).
		cfg := DefaultNetworkConfig()
		cfg.Kind = gen.TigerLike
		cfg.Nodes = 50000
		cfg.Seed = 209
		g, err := GenerateNetwork(cfg)
		if err != nil {
			chBench.err = err
			return
		}
		wl, err := GenerateWorkload(g, WorkloadConfig{Kind: "uniform", Queries: 128, Seed: 211})
		if err != nil {
			chBench.err = err
			return
		}
		overlay, err := ch.Build(g)
		if err != nil {
			chBench.err = err
			return
		}
		chBench.graph, chBench.wl, chBench.overlay = g, wl, overlay
	})
	if chBench.err != nil {
		b.Fatal(chBench.err)
	}
	return chBench.graph, chBench.wl, chBench.overlay
}

// chBenchCustomizable is the same graph's customizable, partitioned overlay —
// the kind the server is deployed with, whose searches walk the elimination
// tree instead of popping a heap. Built on first use, so benchmarks that
// never read it do not pay its contraction.
var chBenchCustomizable struct {
	once    sync.Once
	err     error
	overlay *ch.Overlay
}

func chBenchCustomizableSetup(b *testing.B) *ch.Overlay {
	b.Helper()
	g, _, _ := chBenchSetup(b)
	chBenchCustomizable.once.Do(func() {
		// 64 cells keep the cell size near the served configuration's.
		p, err := roadnet.BuildPartition(g, roadnet.PartitionConfig{Cells: 64})
		if err != nil {
			chBenchCustomizable.err = err
			return
		}
		chBenchCustomizable.overlay, chBenchCustomizable.err = ch.BuildCustomizablePartitioned(g, p)
	})
	if chBenchCustomizable.err != nil {
		b.Fatal(chBenchCustomizable.err)
	}
	return chBenchCustomizable.overlay
}

// BenchmarkCHQuery is the headline contraction-hierarchy measurement: point
// queries on the 50k-node benchmark graph with uniform (map-scale) pairs,
// the regime the overlay is built for.
//
//   - dijkstra-distance runs the workspace Dijkstra the server used for
//     point queries before the overlay existed (0 allocs/op, but its search
//     ball covers a large share of the map on long trips);
//   - ch-distance runs the bidirectional upward search on the overlay,
//     also at 0 allocs/op in steady state;
//   - ch-path additionally unpacks every shortcut into the full node path;
//   - cch-distance and cch-path are the same queries on the customizable,
//     partitioned overlay the server is deployed with, where both searches
//     walk elimination-tree ancestors (distance at 0 allocs/op).
//
// Expectation (the PR's acceptance bar): ch-distance exceeds
// dijkstra-distance throughput by well over 5x at this graph size, with
// settled nodes per query dropping from thousands to hundreds.
func BenchmarkCHQuery(b *testing.B) {
	g, wl, overlay := chBenchSetup(b)
	acc := storage.NewMemoryGraph(g)

	b.Run("cch-distance", func(b *testing.B) {
		eng := ch.NewEngine(chBenchCustomizableSetup(b), nil)
		if _, _, err := eng.Distance(wl[0].Source, wl[0].Dest); err != nil {
			b.Fatal(err) // warm the engine's label pool
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pr := wl[i%len(wl)]
			if _, _, err := eng.Distance(pr.Source, pr.Dest); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cch-path", func(b *testing.B) {
		eng := ch.NewEngine(chBenchCustomizableSetup(b), nil)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pr := wl[i%len(wl)]
			if _, _, err := eng.Path(pr.Source, pr.Dest); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("dijkstra-distance", func(b *testing.B) {
		w := search.AcquireWorkspace(acc.NumNodes())
		defer w.Release()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pr := wl[i%len(wl)]
			if _, _, err := w.DijkstraDistance(acc, pr.Source, pr.Dest); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ch-distance", func(b *testing.B) {
		eng := ch.NewEngine(overlay, nil)
		if _, _, err := eng.Distance(wl[0].Source, wl[0].Dest); err != nil {
			b.Fatal(err) // warm the engine's workspace pool
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pr := wl[i%len(wl)]
			if _, _, err := eng.Distance(pr.Source, pr.Dest); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ch-path", func(b *testing.B) {
		eng := ch.NewEngine(overlay, nil)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pr := wl[i%len(wl)]
			if _, _, err := eng.Path(pr.Source, pr.Dest); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMTMTable is the headline many-to-many measurement: a wide 64×64
// candidate table on the 50k-node benchmark graph, evaluated the four ways
// the server can.
//
//   - hybrid-pr3 is what the pre-MTM hybrid strategy routed a 64×64 table
//     to: the SSMD processor, one spanning tree per source;
//   - pairwise-ch runs all 4096 pairs through the bidirectional overlay
//     engine — the other pre-MTM option;
//   - mtm-table runs the many-to-many bucket engine with per-cell path
//     recording (what the server's wide hybrid queries use);
//   - mtm-distance is the distance-only fast path on a reused output
//     buffer;
//   - cch-mtm-table and cch-mtm-distance are the last two on the
//     customizable, partitioned overlay the server is deployed with, whose
//     sweeps walk elimination-tree ancestors instead of popping a heap.
//
// Expectation (the PR's acceptance bar): mtm-table beats hybrid-pr3 — and
// pairwise-ch — by well over 3x, and mtm-distance reports 0 allocs/op in
// steady state.
func BenchmarkMTMTable(b *testing.B) {
	g, wl, overlay := chBenchSetup(b)
	acc := storage.NewMemoryGraph(g)
	const k = 64
	sources := make([]NodeID, k)
	targets := make([]NodeID, k)
	for i := 0; i < k; i++ {
		sources[i] = wl[i%len(wl)].Source
		targets[i] = wl[(i+37)%len(wl)].Dest
	}

	b.Run("hybrid-pr3/64x64", func(b *testing.B) {
		proc := search.NewProcessor(acc, search.WithStrategy(search.StrategySSMD))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := proc.Evaluate(sources, targets); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pairwise-ch/64x64", func(b *testing.B) {
		proc := search.NewProcessor(acc,
			search.WithStrategy(search.StrategyPointEngine),
			search.WithPointEngine(ch.NewEngine(overlay, nil)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := proc.Evaluate(sources, targets); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("mtm-table/64x64", func(b *testing.B) {
		benchMTMTable(b, overlay, sources, targets)
	})
	b.Run("mtm-distance/64x64", func(b *testing.B) {
		benchMTMDistance(b, overlay, sources, targets)
	})
	b.Run("cch-mtm-table/64x64", func(b *testing.B) {
		benchMTMTable(b, chBenchCustomizableSetup(b), sources, targets)
	})
	b.Run("cch-mtm-distance/64x64", func(b *testing.B) {
		benchMTMDistance(b, chBenchCustomizableSetup(b), sources, targets)
	})
}

// benchMTMTable times a path-capable table with every cell's route
// unpacked the way the server lays a reply out: appended back to back into
// one arena, no per-cell slice.
func benchMTMTable(b *testing.B, overlay *ch.Overlay, sources, targets []NodeID) {
	m := ch.NewMTM(overlay, nil)
	var arena []NodeID
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl, err := m.Table(sources, targets)
		if err != nil {
			b.Fatal(err)
		}
		arena = arena[:0]
		for si := range sources {
			for ti := range targets {
				arena = tbl.AppendPath(arena, si, ti)
			}
		}
	}
}

// benchMTMDistance times the distance-only table on a reused output buffer.
func benchMTMDistance(b *testing.B, overlay *ch.Overlay, sources, targets []NodeID) {
	m := ch.NewMTM(overlay, nil)
	var dst []float64
	var err error
	if dst, _, err = m.DistancesInto(dst, sources, targets); err != nil {
		b.Fatal(err) // warm the state pool so the loop is steady state
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if dst, _, err = m.DistancesInto(dst, sources, targets); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNetworkGeneration measures the synthetic map generators used by
// every experiment.
func BenchmarkNetworkGeneration(b *testing.B) {
	for _, kind := range []gen.NetworkKind{gen.Grid, gen.TigerLike} {
		b.Run(string(kind), func(b *testing.B) {
			cfg := DefaultNetworkConfig()
			cfg.Kind = kind
			cfg.Nodes = 10000
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cfg.Seed = uint64(i + 1)
				if _, err := GenerateNetwork(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
