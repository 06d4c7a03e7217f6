// Command opaque-server runs the OPAQUE directions search server: it loads a
// road network, installs the obfuscated path query processor and answers
// obfuscated path queries from obfuscators over TCP.
//
// Usage:
//
//	opaque-server -network network.txt -listen :7001
//	opaque-server -generate tigerlike -nodes 20000 -listen :7001
//	opaque-server -network network.txt -strategy hybrid -ch-overlay network.och
//
// -strategy is ssmd (SSMD sharing, no overlay) or hybrid (the CH overlay:
// every query is one many-to-many table on it). A hybrid server without
// -ch-overlay contracts the map at startup.
//
// With -profiles the server precustomizes time-of-day weight-profile layers
// (e.g. am-peak) that queries select by name with zero customization work on
// the query path. With -churn it synthesizes a streaming traffic feed through
// the coalescing ingestion pipeline, exercising live weight updates and
// pipelined overlay re-customization continuously.
//
// With -stats-interval the server periodically logs its throughput counters,
// the strategy routing split (many-to-many / flat fallback),
// the many-to-many bucket engine gauges, the ingestion pipeline and profile
// layer counters, the SSMD tree cache hit ratio and the search workspace
// pool counters.
package main

import (
	"flag"
	"log"
	"math/rand"
	"net"
	"strings"
	"time"

	"opaque/internal/ch"
	"opaque/internal/costmodel"
	"opaque/internal/gen"
	"opaque/internal/protocol"
	"opaque/internal/roadnet"
	"opaque/internal/search"
	"opaque/internal/server"
	"opaque/internal/storage"
	"opaque/internal/traffic"
)

func main() {
	log.SetFlags(log.LstdFlags)
	log.SetPrefix("opaque-server: ")

	var (
		networkFile   = flag.String("network", "", "road network file in roadnet text format")
		generate      = flag.String("generate", "", "generate a network instead of loading one: grid | geometric | ringradial | tigerlike")
		nodes         = flag.Int("nodes", 10000, "node count when generating")
		seed          = flag.Uint64("seed", 42, "generation seed")
		listen        = flag.String("listen", ":7001", "TCP listen address for obfuscator connections")
		strategy      = flag.String("strategy", "ssmd", "query evaluation strategy: ssmd | hybrid")
		batchWorkers  = flag.Int("batch-workers", 0, "concurrent queries per batch in the batch engine (0 = GOMAXPROCS)")
		maxSearches   = flag.Int("max-searches", 0, "server-wide cap on concurrent per-source searches (0 = unbounded)")
		treeCache     = flag.Int("tree-cache", 0, "SSMD tree cache capacity in trees (0 disables the cache)")
		paged         = flag.Bool("paged", false, "simulate disk-resident storage with an LRU buffer pool")
		bufferPages   = flag.Int("buffer-pages", 256, "buffer pool capacity in pages (with -paged)")
		chOverlay     = flag.String("ch-overlay", "", "contraction-hierarchy overlay file built by opaque-preprocess (with -strategy hybrid; empty = contract at startup)")
		partition     = flag.Int("partition-cells", 0, "contract the startup overlay partition-aware with this many spatial cells: the overlay customizes cell-parallel and attributes weight updates to cells (0 = flat; with -strategy hybrid and no -ch-overlay, whose file carries its own partition)")
		profiles      = flag.String("profiles", "", `precustomize weight-profile layers: "timeofday" for the built-in catalog, or a comma list of catalog names (am-peak,pm-peak,offpeak,night); queries select one by name`)
		profileCap    = flag.Int("profile-capacity", 0, "max resident profile layers behind the LRU (0 = all configured; with -profiles)")
		churn         = flag.Float64("churn", 0, "synthesize a streaming traffic feed at this many weight-change events/sec through the coalescing ingestion pipeline (0 disables)")
		churnArcs     = flag.Int("churn-arcs", 64, "hot-arc pool size of the synthetic -churn stream")
		statsInterval = flag.Duration("stats-interval", 0, "periodically log query/cache/workspace-pool statistics (0 disables)")
		maxInFlight   = flag.Int("max-inflight", 0, "per-connection in-flight request cap on the multiplexed transport (0 = default)")
		shedAt        = flag.Int("shed-at", 0, "admission-control watermark: at this many in-flight requests per connection, shed queries to distance-only answers (0 disables)")
	)
	flag.Parse()

	g, err := gen.LoadOrGenerate(*networkFile, *generate, *nodes, *seed)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("road network loaded: %d nodes, %d arcs", g.NumNodes(), g.NumArcs())

	cfg := server.DefaultConfig()
	cfg.Strategy = search.Strategy(*strategy)
	cfg.BatchWorkers = *batchWorkers
	cfg.MaxConcurrentSearches = *maxSearches
	cfg.TreeCache = *treeCache
	cfg.Paged = *paged
	cfg.PageConfig = storage.DefaultConfig()
	cfg.BufferPages = *bufferPages
	if *partition > 0 && *chOverlay != "" {
		log.Fatalf("-partition-cells shapes the startup contraction and cannot apply to a loaded overlay; build the partitioned file with opaque-preprocess -partition-cells instead")
	}
	// server.New refuses the other misdirected overlay flags (-ch-overlay or
	// -partition-cells without -strategy hybrid, an overlay on a -paged
	// server) before any contraction work starts.
	if *chOverlay != "" {
		overlay, err := ch.ReadFile(*chOverlay)
		if err != nil {
			log.Fatalf("loading CH overlay: %v", err)
		}
		log.Printf("CH overlay loaded from %s: %d shortcuts, max level %d", *chOverlay, overlay.NumShortcuts(), overlay.MaxLevel())
		cfg.CHOverlay = overlay
	} else {
		cfg.BuildCH = cfg.Strategy == server.StrategyHybrid
		cfg.PartitionCells = *partition
	}

	if *profiles != "" {
		var defs []costmodel.WeightProfile
		if *profiles == "timeofday" {
			defs = costmodel.TimeOfDayProfiles()
		} else {
			for _, name := range strings.Split(*profiles, ",") {
				p, ok := costmodel.ProfileByName(strings.TrimSpace(name))
				if !ok {
					log.Fatalf("-profiles: unknown profile %q (catalog: %v)", strings.TrimSpace(name), costmodel.ProfileNames())
				}
				defs = append(defs, p)
			}
		}
		cfg.Profiles = defs
		cfg.ProfileCapacity = *profileCap
		// Prewarm at startup so no query ever pays a customization pass.
		cfg.PrewarmProfiles = true
	} else if *profileCap != 0 {
		log.Fatalf("-profile-capacity requires -profiles")
	}
	if *churnArcs <= 0 {
		log.Fatalf("-churn-arcs must be positive (got %d)", *churnArcs)
	}

	buildStart := time.Now()
	srv, err := server.New(g, cfg)
	if err != nil {
		log.Fatalf("building server: %v", err)
	}
	log.Printf("server built in %v", time.Since(buildStart).Round(time.Millisecond))
	if o := srv.Overlay(); o != nil && cfg.BuildCH {
		log.Printf("CH overlay contracted at startup (persist one with opaque-preprocess to skip this): %d shortcuts, max level %d, %d partition cells",
			o.NumShortcuts(), o.MaxLevel(), o.PartitionCells())
	}
	if len(cfg.Profiles) > 0 {
		capacity := *profileCap
		if capacity <= 0 {
			capacity = len(cfg.Profiles)
		}
		log.Printf("prewarmed %d weight profile layers (LRU capacity %d)", srv.ProfileLayerStats().Layers, capacity)
	}

	if *churn > 0 {
		in, err := srv.NewIngestor(traffic.Config{})
		if err != nil {
			log.Fatalf("starting ingestion pipeline: %v", err)
		}
		log.Printf("synthetic traffic feed: %.0f events/sec over a %d-arc hot pool (coalesced, max delay %v)",
			*churn, *churnArcs, traffic.DefaultMaxDelay)
		go runChurn(in, g, *churn, *churnArcs, int64(*seed))
	}

	if *statsInterval > 0 {
		go logStats(srv, *statsInterval)
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("listening on %s: %v", *listen, err)
	}
	log.Printf("obfuscated path query processor ready on %s (strategy=%s, paged=%v, multiplexed transport)", ln.Addr(), cfg.Strategy, cfg.Paged)
	if err := srv.ServeMux(ln, protocol.MuxServerConfig{MaxInFlight: *maxInFlight, ShedAt: *shedAt}); err != nil {
		log.Fatalf("serve: %v", err)
	}
}

// runChurn drives a never-ending synthetic weight-change stream through the
// ingestion pipeline: last-write-wins events over a fixed hot-arc pool, paced
// on an absolute schedule (so coarse sleeps burst-catch-up instead of
// undershooting the rate), with occasional reverts to the original weight.
func runChurn(in *traffic.Ingestor, g *roadnet.Graph, rate float64, poolSize int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	type arc struct {
		from, to roadnet.NodeID
		orig     float64
	}
	pool := make([]arc, 0, poolSize)
	stride := g.NumNodes()/poolSize + 1
	for v := 0; v < g.NumNodes() && len(pool) < poolSize; v += stride {
		if arcs := g.Arcs(roadnet.NodeID(v)); len(arcs) > 0 {
			pool = append(pool, arc{roadnet.NodeID(v), arcs[0].To, arcs[0].Cost})
		}
	}
	if len(pool) == 0 {
		log.Printf("churn: no arcs to perturb; feed disabled")
		return
	}
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	for i := 0; ; i++ {
		if wait := start.Add(time.Duration(i) * interval).Sub(time.Now()); wait > 0 {
			time.Sleep(wait)
		}
		a := pool[rng.Intn(len(pool))]
		cost := a.orig * (0.5 + rng.Float64())
		if rng.Intn(6) == 0 {
			cost = a.orig
		}
		if err := in.Ingest(roadnet.ArcWeightChange{From: a.from, To: a.to, NewCost: cost}); err != nil {
			log.Printf("churn: ingest: %v; feed stopped", err)
			return
		}
	}
}

// logStats periodically prints the server's operational counters: query and
// batch throughput, the strategy routing split, the many-to-many bucket
// engine's arena gauges, the streaming ingestion pipeline and pending
// re-customization work, the profile layer cache, the partition's cell
// counters, the last overlay refresh (duration and arcs re-derived), the SSMD
// tree cache hit ratio and the workspace pool's
// checkout/reuse numbers — the at-a-glance health line for a long-running
// deployment.
func logStats(srv *server.Server, every time.Duration) {
	for range time.Tick(every) {
		m := srv.Metrics()
		cache := srv.TreeCacheStats()
		ws := srv.WorkspacePoolStats()
		io := srv.IOStats()
		mt := srv.MTMStats()
		ing := srv.IngestStats()
		prof := srv.ProfileLayerStats()
		log.Printf("stats: queries=%d failed=%d batches=%d | route mtm=%d fallback=%d | mtm tables=%d bucket-entries=%d scanned=%d arena-high-water=%d | ingest events=%d batches=%d ratio=%.2f queue=%d pending-cells=%d | profiles hits=%d misses=%d layers=%d | partition cells=%d cells-recustomized=%d | recustomize runs=%d last-ms=%.1f last-arcs=%d | tree-cache hits=%d misses=%d ratio=%.3f | workspaces gets=%d in-flight=%d fresh=%d reuse=%.3f | page-faults=%d",
			m.Counter("queries_processed"), m.Counter("queries_failed"), m.Counter("batches_processed"),
			m.Counter("mtm_queries"), m.Counter("fallback_queries"),
			mt.Tables, mt.BucketEntries, mt.BucketEntriesScanned, mt.ArenaHighWater,
			ing.Events, ing.Batches, ing.CoalesceRatio(), ing.QueueDepth, int64(m.Gauge("recustomize_pending_cells")),
			prof.Hits, prof.Misses, prof.Layers,
			int64(m.Gauge("partition_cells")), m.Counter("cells_recustomized"),
			m.Counter("recustomize_runs"), m.Gauge("recustomize_last_ms"), int64(m.Gauge("recustomize_arcs_last")),
			cache.Hits, cache.Misses, cache.HitRatio(),
			ws.Gets, ws.InFlight(), ws.Fresh, ws.ReuseRatio(),
			io.Faults)
	}
}
