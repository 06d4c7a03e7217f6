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
// With -stats-interval the server periodically logs its throughput counters,
// the strategy routing split (many-to-many / flat fallback), the
// many-to-many bucket engine gauges, the last overlay re-customization, the
// SSMD tree cache hit ratio and the search workspace pool counters.
package main

import (
	"flag"
	"log"
	"net"
	"time"

	"opaque/internal/ch"
	"opaque/internal/gen"
	"opaque/internal/protocol"
	"opaque/internal/search"
	"opaque/internal/server"
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
		chOverlay     = flag.String("ch-overlay", "", "contraction-hierarchy overlay file built by opaque-preprocess (with -strategy hybrid; empty = contract at startup)")
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
	// The query log grows with every query served and nothing in a serving
	// process reads it; the adversary analyses run in process.
	cfg.KeepLog = false
	// server.New refuses -ch-overlay without -strategy hybrid before any
	// contraction work starts.
	if *chOverlay != "" {
		overlay, err := ch.ReadFile(*chOverlay)
		if err != nil {
			log.Fatalf("loading CH overlay: %v", err)
		}
		log.Printf("CH overlay loaded from %s: %d shortcuts, max level %d", *chOverlay, overlay.NumShortcuts(), overlay.MaxLevel())
		cfg.CHOverlay = overlay
	} else {
		cfg.BuildCH = cfg.Strategy == server.StrategyHybrid
	}

	buildStart := time.Now()
	srv, err := server.New(g, cfg)
	if err != nil {
		log.Fatalf("building server: %v", err)
	}
	log.Printf("server built in %v", time.Since(buildStart).Round(time.Millisecond))
	if o := srv.Overlay(); o != nil && cfg.BuildCH {
		log.Printf("CH overlay contracted at startup (persist one with opaque-preprocess to skip this): %d shortcuts, max level %d",
			o.NumShortcuts(), o.MaxLevel())
	}
	if *statsInterval > 0 {
		go logStats(srv, *statsInterval)
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("listening on %s: %v", *listen, err)
	}
	log.Printf("obfuscated path query processor ready on %s (strategy=%s, multiplexed transport)", ln.Addr(), cfg.Strategy)
	if err := srv.ServeMux(ln, protocol.MuxServerConfig{MaxInFlight: *maxInFlight, ShedAt: *shedAt}); err != nil {
		log.Fatalf("serve: %v", err)
	}
}

// logStats periodically prints the server's operational counters: query and
// batch throughput, the strategy routing split, the many-to-many bucket
// engine's arena gauges, the last overlay refresh (duration and arcs
// re-derived), the SSMD tree cache hit ratio and the workspace pool's
// checkout/reuse numbers — the at-a-glance health line for a long-running
// deployment.
func logStats(srv *server.Server, every time.Duration) {
	for range time.Tick(every) {
		m := srv.Metrics()
		cache := srv.TreeCacheStats()
		ws := srv.WorkspacePoolStats()
		mt := srv.MTMStats()
		log.Printf("stats: queries=%d failed=%d batches=%d | route mtm=%d fallback=%d | mtm tables=%d bucket-entries=%d scanned=%d arena-high-water=%d | recustomize runs=%d last-ms=%.1f last-arcs=%d | tree-cache hits=%d misses=%d ratio=%.3f | workspaces gets=%d in-flight=%d fresh=%d reuse=%.3f",
			m.Counter("queries_processed"), m.Counter("queries_failed"), m.Counter("batches_processed"),
			m.Counter("mtm_queries"), m.Counter("fallback_queries"),
			mt.Tables, mt.BucketEntries, mt.BucketEntriesScanned, mt.ArenaHighWater,
			m.Counter("recustomize_runs"), m.Gauge("recustomize_last_ms"), int64(m.Gauge("recustomize_arcs_last")),
			cache.Hits, cache.Misses, cache.HitRatio(),
			ws.Gets, ws.InFlight(), ws.Fresh, ws.ReuseRatio())
	}
}
