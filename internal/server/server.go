// Package server implements the OPAQUE directions search server: it holds the
// full road map (optionally behind the paged storage simulation), evaluates
// obfuscated path queries Q(S, T) with the obfuscated path query processor of
// internal/search, keeps the query log an honest-but-curious operator would
// accumulate, and optionally exposes the whole thing over TCP for the
// networked deployment.
//
// Two evaluation entry points are provided. Evaluate answers one obfuscated
// query; EvaluateBatch (engine.go) answers a whole batch on a worker pool,
// sharing SSMD spanning trees across queries through the tree cache and
// composing per-query parallelism under a server-wide concurrency gate.
// In-memory deployments additionally accept live weight updates
// (UpdateWeights, update.go): queries pin copy-on-write snapshots, caches
// invalidate by generation, and the CH overlay is re-customized in the
// background while stale-routed queries take the SSMD fallback. The
// hot path is free of global mutexes — the query log and statistics are
// striped across shards and metrics use atomic counters — and free of
// per-query label allocation: every search runs on an epoch-stamped
// workspace checked out of the server's search.WorkspacePool (see the "query
// hot path" notes in internal/search).
package server

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"opaque/internal/ch"
	"opaque/internal/costmodel"
	"opaque/internal/metrics"
	"opaque/internal/protocol"
	"opaque/internal/roadnet"
	"opaque/internal/search"
	"opaque/internal/storage"
	"opaque/internal/traffic"
)

// StrategyHybrid serves through the contraction-hierarchy overlay
// (Config.CHOverlay or Config.BuildCH) and routes each query by shape:
// point-ish queries (up to DefaultCHMaxPairs candidate pairs) go pairwise to
// the overlay, wider obfuscated queries go to the many-to-many bucket engine.
// When the server has no overlay at all, every query falls back to the SSMD
// spanning-tree sharing (and the tree cache, when enabled).
const StrategyHybrid = search.Strategy("hybrid")

// Config parameterises a Server.
type Config struct {
	// Strategy selects how Q(S,T) is served: search.StrategySSMD (also the
	// zero value) answers every query with SSMD sharing and takes no
	// overlay; StrategyHybrid serves through the CH overlay. New refuses
	// anything else. The per-pair, A* and ALT searches of internal/search
	// are library code for the paper's baselines, not serving strategies.
	Strategy search.Strategy
	// Workers bounds per-query source-level parallelism (default 1).
	Workers int
	// BatchWorkers bounds how many queries of one EvaluateBatch call run
	// concurrently (default: GOMAXPROCS). Together with Workers it defines
	// the batch engine's parallelism: BatchWorkers queries in flight, each
	// fanning out up to Workers per-source searches.
	BatchWorkers int
	// MaxConcurrentSearches caps the total number of per-source searches in
	// flight across all queries and batches, composing Workers ×
	// BatchWorkers under one server-wide semaphore so large batches cannot
	// oversubscribe the machine. 0 means no cap.
	MaxConcurrentSearches int
	// TreeCache enables the SSMD tree cache with capacity for that many
	// settled spanning trees (see search.TreeCache): obfuscated queries
	// whose source sets overlap reuse each other's Dijkstra trees instead
	// of recomputing them. 0 disables the cache. Only StrategySSMD benefits.
	// Each cached tree costs O(nodes) memory. The cache changes reported
	// search statistics (cache hits count only incremental work) but never
	// the returned paths.
	TreeCache int
	// Paged enables the disk simulation: the graph is laid out in
	// connectivity-clustered pages and accessed through an LRU buffer pool.
	Paged bool
	// PageConfig and BufferPages configure the simulation when Paged is set.
	PageConfig  storage.Config
	BufferPages int
	// KeepLog records every received query for adversary analysis.
	KeepLog bool
	// CHOverlay installs a prebuilt contraction-hierarchy overlay (usually
	// loaded from a cmd/opaque-preprocess file); it must Match the server's
	// graph. StrategyHybrid only, and in-memory only: a Paged server is
	// flat. Hybrid without an overlay falls back to pure SSMD sharing.
	// New takes the overlay over: the server keeps no reference to it beyond
	// the installed state, so the first re-customization after a weight
	// update releases it.
	CHOverlay *ch.Overlay
	// BuildCH contracts the graph at startup when no CHOverlay is given —
	// the in-process equivalent of running cmd/opaque-preprocess. Expect
	// seconds of startup work on large maps; persisted overlays skip it.
	BuildCH bool
	// PartitionCells makes the startup contraction partition-aware: the
	// road map is cut into this many spatial cells
	// (roadnet.BuildPartition) and contracted cell by cell with boundary
	// nodes last, so the overlay customizes its cells in parallel and weight
	// updates are attributed to the cells they reach (cells_recustomized).
	// 0 or 1 keeps the flat single-layer contraction. Ignored unless the
	// overlay is built at startup (BuildCH without CHOverlay) — a loaded
	// CHOverlay carries its own partition, or none.
	PartitionCells int
	// Profiles precustomizes one overlay weight layer (and one evaluation
	// state) per named weight profile — deterministic reweightings of the
	// startup metric, typically costmodel.TimeOfDayProfiles(). Queries
	// select a profile with protocol.ServerQuery.Profile and are answered
	// from its precustomized layer with zero customization work on the query
	// path; live weight updates never touch profile layers (profiles answer
	// "what does this trip usually cost at 8am" over the reference metric,
	// not the live one). Requires the in-memory backend; with an overlay,
	// the overlay must be customizable.
	Profiles []costmodel.WeightProfile
	// ProfileCapacity bounds how many profile layers stay hot behind the
	// LRU (0 = all configured profiles). Evicted layers rebuild on demand,
	// paying one customization pass.
	ProfileCapacity int
	// PrewarmProfiles builds every configured profile layer during New, so
	// the first query of each profile pays nothing. Off, layers build on
	// first use.
	PrewarmProfiles bool
}

// DefaultCHMaxPairs is the hybrid cutover: obfuscated queries of up to this
// many candidate pairs (|S|·|T| ≤ DefaultCHMaxPairs, inclusive) run
// pairwise on the CH overlay, whose bidirectional stopping rule prunes each
// individual search; strictly wider tables go to the many-to-many bucket
// engine, whose |S|+|T| sweeps amortise across cells. Experiment E15
// measures the crossover on the overlay kind servers are deployed with
// (customizable, partitioned), where every upward search is an
// elimination-tree walk: the two engines do the same search work on 1×1
// (within 0.1 ms of each other in three runs), and MTM is about twice
// as fast at 1×4 and 2×2 and an order of magnitude faster from 16×16 up
// (6 000-node map, small scale). The cutover stays at 4 all the same:
// moving it changes how point-open's small queries are routed, which needs a
// benchmark claim of its own.
const DefaultCHMaxPairs = 4

// DefaultConfig returns an in-memory SSMD server with logging enabled. The
// tree cache is off by default so single-query experiments report cold-search
// work; batch deployments enable it via TreeCache.
func DefaultConfig() Config {
	return Config{
		Strategy:    search.StrategySSMD,
		Workers:     1,
		Paged:       false,
		PageConfig:  storage.DefaultConfig(),
		BufferPages: 256,
		KeepLog:     true,
	}
}

// LogEntry is one obfuscated query as the server saw it — the only
// information the semi-trusted operator ever receives about user intent.
type LogEntry struct {
	QueryID uint64
	Sources []roadnet.NodeID
	Dests   []roadnet.NodeID
	// Profile is the weight profile the query asked for ("" = live metric).
	// It is part of what the operator legitimately observes.
	Profile string
}

// ConfigError is the error New returns for a Config it refuses to serve:
// Field names the offending Config field, Reason says why.
type ConfigError struct {
	Field  string
	Reason string
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("server: Config.%s: %s", e.Field, e.Reason)
}

// validate refuses the configurations New cannot serve as asked: an unknown
// strategy, overlay settings on an ssmd server (which would be silently
// ignored) and an overlay on a paged server (which is flat).
func (cfg Config) validate() error {
	overlay := cfg.CHOverlay != nil || cfg.BuildCH
	switch cfg.Strategy {
	case "", search.StrategySSMD:
		if overlay || cfg.PartitionCells != 0 {
			return &ConfigError{"Strategy", "ssmd serves without an overlay; CHOverlay, BuildCH and PartitionCells need hybrid"}
		}
	case StrategyHybrid:
		if cfg.Paged && overlay {
			return &ConfigError{"Paged", "a paged server is flat; serve the overlay from an in-memory server"}
		}
	default:
		return &ConfigError{"Strategy", fmt.Sprintf("%q is not a serving strategy (want %q or %q)", cfg.Strategy, search.StrategySSMD, StrategyHybrid)}
	}
	return nil
}

// evalState is everything one query is evaluated with: the accessor it
// reads, the flat SSMD processor over it and — when the server serves
// through an overlay — the overlay, the two engines bound to it and the
// processors routed onto them. The live metric's state sits behind one
// atomic pointer that re-customization replaces wholesale, so a query sees
// either the old state (whose staleness evaluateLive's check or the engines'
// own verification catches) or the new one, never a half-installed mix. A
// weight profile is a state that never swaps.
type evalState struct {
	acc     storage.Accessor
	flat    *search.Processor
	overlay *ch.Overlay // nil: the server runs without an overlay
	engine  *ch.Engine
	mtm     *ch.MTM
	point   *search.Processor // pairwise on the overlay
	table   *search.Processor // many-to-many on the overlay
}

// Server is the directions search server.
type Server struct {
	graph *roadnet.Graph
	acc   storage.Accessor
	pool  *storage.BufferPool
	// mutable is the live-update view of the accessor — non-nil exactly for
	// in-memory deployments, where UpdateWeights is supported. Paged
	// deployments serve the page layout they were built over and reject
	// updates.
	mutable *storage.MutableGraph
	// live is the state live-metric queries evaluate with; never nil.
	// Replaced wholesale by re-customization.
	live atomic.Pointer[evalState]
	// recustomizeMu serialises re-customization runs; recustomizing
	// additionally dedupes background kicks so at most one goroutine is ever
	// spawned at a time.
	recustomizeMu sync.Mutex
	recustomizing atomic.Bool
	// afterRecustomize, when set (tests only, before the first update), runs
	// in the background refresh goroutine between RecustomizeNow returning
	// and the recustomizing flag clearing — the window in which a concurrent
	// update's kick is dropped.
	afterRecustomize func()
	// pendingCells is the union of overlay weight layers dirtied by applied
	// weight changes that no completed re-customization has covered yet
	// (cell index, or -1 for the boundary top layer / a flat overlay). It
	// feeds the recustomize_pending_cells gauge and empties when the
	// installed overlay catches up with the current graph.
	pendingMu    sync.Mutex
	pendingCells map[int]struct{}
	// ingest is the most recently created streaming ingestion pipeline
	// (NewIngestor), held for metrics publication only.
	ingest atomic.Pointer[traffic.Ingestor]
	// profiles holds the precustomized weight-profile states, nil when
	// Config.Profiles is empty.
	profiles *profileCache
	cache    *search.TreeCache
	gate     search.Gate
	// wsPool owns the epoch-stamped search workspaces every query of this
	// server runs on: batch workers and per-query source fan-out all check
	// workspaces out of this one pool, so steady-state evaluation performs
	// no per-query label allocation no matter how traffic is shaped.
	wsPool *search.WorkspacePool
	cfg    Config

	log     shardedLog
	queryID atomic.Uint64
	stats   shardedStats

	metrics *metrics.Registry
	// pre-resolved metric handles so the hot path never touches the
	// registry map.
	mQueries      *metrics.Counter
	mFailed       *metrics.Counter
	mPairs        *metrics.Counter
	mSettled      *metrics.Counter
	mBatches      *metrics.Counter
	mBatchQueries *metrics.Counter
	mCHQueries    *metrics.Counter
	mMTMQueries   *metrics.Counter
	mFallback     *metrics.Counter
	mStaleQueries *metrics.Counter
	mWeightUpd    *metrics.Counter
	mRecustomize  *metrics.Counter
	mRecustFail   *metrics.Counter
	mCellsRecust  *metrics.Counter
	mProfileHits  *metrics.Counter
	mProfileMiss  *metrics.Counter
	hLatency      *metrics.Histogram
	hBatchLatency *metrics.Histogram
}

// New builds a server over graph g according to cfg.
func New(g *roadnet.Graph, cfg Config) (*Server, error) {
	if g == nil || g.NumNodes() == 0 {
		return nil, fmt.Errorf("server: need a non-empty road map")
	}
	if !g.Frozen() {
		return nil, fmt.Errorf("server: graph must be frozen")
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	// New consumes CHOverlay: from here on the installed evaluation state is
	// the overlay's only owner, so the first re-customization that replaces it
	// leaves the startup weight layer collectable instead of pinned by s.cfg.
	overlay := cfg.CHOverlay
	cfg.CHOverlay = nil
	s := &Server{graph: g, cfg: cfg, metrics: metrics.NewRegistry()}
	s.mQueries = s.metrics.CounterVar("queries_processed")
	s.mFailed = s.metrics.CounterVar("queries_failed")
	s.mPairs = s.metrics.CounterVar("candidate_pairs")
	s.mSettled = s.metrics.CounterVar("nodes_settled")
	s.mBatches = s.metrics.CounterVar("batches_processed")
	s.mBatchQueries = s.metrics.CounterVar("batch_queries")
	s.mCHQueries = s.metrics.CounterVar("ch_queries")
	s.mMTMQueries = s.metrics.CounterVar("mtm_queries")
	s.mFallback = s.metrics.CounterVar("fallback_queries")
	s.mStaleQueries = s.metrics.CounterVar("overlay_stale_queries")
	s.mWeightUpd = s.metrics.CounterVar("weight_updates")
	s.mRecustomize = s.metrics.CounterVar("recustomize_runs")
	s.mRecustFail = s.metrics.CounterVar("recustomize_failures")
	s.mCellsRecust = s.metrics.CounterVar("cells_recustomized")
	s.mProfileHits = s.metrics.CounterVar("profile_layer_hits")
	s.mProfileMiss = s.metrics.CounterVar("profile_layer_misses")
	s.hLatency = s.metrics.HistogramVar("query_latency")
	s.hBatchLatency = s.metrics.HistogramVar("batch_latency")
	if cfg.Paged {
		store, err := storage.Build(g, cfg.PageConfig)
		if err != nil {
			return nil, fmt.Errorf("server: building page store: %w", err)
		}
		bufferPages := cfg.BufferPages
		if bufferPages <= 0 {
			bufferPages = 256
		}
		pool, err := storage.NewBufferPool(bufferPages)
		if err != nil {
			return nil, fmt.Errorf("server: building buffer pool: %w", err)
		}
		s.pool = pool
		s.acc = storage.NewPagedGraph(store, pool)
	} else {
		// In-memory deployments serve through the mutable weight view, so
		// UpdateWeights works out of the box: queries pin immutable snapshots
		// (the processors do this per evaluation), updates swap the current
		// one atomically.
		s.mutable = storage.NewMutableGraph(g)
		s.acc = s.mutable
	}
	s.wsPool = search.NewWorkspacePool()

	if cfg.TreeCache > 0 {
		s.cache = search.NewTreeCacheWithPool(cfg.TreeCache, s.wsPool)
	}
	if cfg.MaxConcurrentSearches > 0 {
		s.gate = search.NewGate(cfg.MaxConcurrentSearches)
	}

	if overlay == nil && cfg.BuildCH {
		buildCfg := ch.DefaultBuildConfig()
		// An overlay server is in-memory, hence mutable: it contracts
		// customizable, so live weight updates are absorbed by
		// re-customization instead of leaving the overlay permanently
		// stale. Deployments that never update weights can load a smaller
		// witness-pruned file instead.
		buildCfg.Customizable = true
		if cfg.PartitionCells > 1 {
			part, err := roadnet.BuildPartition(g, roadnet.PartitionConfig{Cells: cfg.PartitionCells})
			if err != nil {
				return nil, fmt.Errorf("server: partitioning road map: %w", err)
			}
			buildCfg.Partition = part
		}
		built, err := ch.BuildWithConfig(g, buildCfg)
		if err != nil {
			return nil, fmt.Errorf("server: building CH overlay: %w", err)
		}
		overlay = built
	}
	// Without an overlay hybrid degrades gracefully to the SSMD processor —
	// a replica can come up before its overlay file is provisioned.
	if overlay != nil {
		if err := overlay.Matches(g); err != nil {
			return nil, fmt.Errorf("server: installing CH overlay: %w", err)
		}
	}
	s.live.Store(s.newEvalState(s.acc, overlay, storage.GenerationOf(s.acc), s.cache))
	if err := s.initProfiles(); err != nil {
		return nil, err
	}
	return s, nil
}

// newEvalState builds the evaluation state over acc: the flat SSMD processor
// (with cache, nil for none) and, for a non-nil overlay, both engines bound
// to gen — the accessor generation the overlay's weights are valid for —
// with their processors. Called at startup, by every re-customization swap
// and for every profile.
func (s *Server) newEvalState(acc storage.Accessor, overlay *ch.Overlay, gen uint64, cache *search.TreeCache) *evalState {
	newProcessor := func(opts ...search.ProcessorOption) *search.Processor {
		opts = append(opts, search.WithWorkspacePool(s.wsPool), search.WithWorkers(s.cfg.Workers), search.WithGate(s.gate))
		return search.NewProcessor(acc, opts...)
	}
	st := &evalState{acc: acc, overlay: overlay, flat: newProcessor(search.WithTreeCache(cache))}
	if overlay != nil {
		st.engine = ch.NewEngine(overlay, s.wsPool)
		st.engine.BindGeneration(gen)
		st.mtm = ch.NewMTM(overlay, s.wsPool)
		st.mtm.BindGeneration(gen)
		st.point = newProcessor(search.WithStrategy(search.StrategyPointEngine), search.WithPointEngine(st.engine))
		st.table = newProcessor(search.WithStrategy(search.StrategyTableEngine), search.WithTableEngine(st.mtm))
	}
	return st
}

// MustNew is New but panics on error.
func MustNew(g *roadnet.Graph, cfg Config) *Server {
	s, err := New(g, cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Graph returns the server's road map — the current weight snapshot when
// the deployment is mutable (it changes identity on every UpdateWeights),
// the startup graph otherwise.
func (s *Server) Graph() *roadnet.Graph {
	if s.mutable != nil {
		return storage.SnapshotOf(s.mutable).Graph()
	}
	return s.graph
}

// Accessor returns the accessor queries are evaluated against.
func (s *Server) Accessor() storage.Accessor { return s.acc }

// Evaluate processes one obfuscated path query and returns all candidate
// result paths. This is the entry point used both by the in-process
// deployment and by the multiplexed transport's handler (mux.go);
// EvaluateBatch fans it out over a worker pool for whole batches.
//
// The reply's candidate paths all sub-slice one node arena that belongs to
// the reply alone: nothing the server retains (the query log copies its
// endpoint sets, the tree cache keeps trees, not results) aliases it.
func (s *Server) Evaluate(q protocol.ServerQuery) (protocol.ServerReply, error) {
	if len(q.Sources) == 0 || len(q.Dests) == 0 {
		return protocol.ServerReply{}, fmt.Errorf("server: query %d has empty source or destination set", q.QueryID)
	}
	id := q.QueryID
	if id == 0 {
		id = s.queryID.Add(1)
	}
	if s.cfg.KeepLog {
		s.log.append(LogEntry{
			QueryID: id,
			Sources: append([]roadnet.NodeID(nil), q.Sources...),
			Dests:   append([]roadnet.NodeID(nil), q.Dests...),
			Profile: q.Profile,
		})
	}
	var faultsBefore int64
	if s.pool != nil {
		faultsBefore = s.pool.Stats().Faults
	}
	start := time.Now()
	var res search.Table
	var ident replyIdentity
	var err error
	if q.Profile != "" {
		res, ident, err = s.evaluateProfile(q)
	} else {
		res, ident, err = s.evaluateLive(q)
	}
	if err != nil {
		s.mFailed.Add(1)
		return protocol.ServerReply{}, fmt.Errorf("server: evaluating query %d: %w", id, err)
	}
	s.hLatency.Observe(time.Since(start))
	s.mQueries.Add(1)
	s.mPairs.Add(int64(len(q.Sources) * len(q.Dests)))
	s.mSettled.Add(int64(res.Stats.SettledNodes))
	reply := protocol.ServerReply{
		QueryID:      id,
		SettledNodes: res.Stats.SettledNodes,
		Generation:   ident.generation,
		ContentSum:   ident.contentSum,
		Profile:      q.Profile,
		Degraded:     q.DistanceOnly,
	}
	if s.pool != nil {
		poolStats := s.pool.Stats()
		// Per-reply fault attribution is a window over the shared pool
		// counter: exact when queries run sequentially, an upper bound when
		// EvaluateBatch overlaps queries. The page_faults gauge mirrors the
		// pool's absolute counter, so the server-level total never
		// multi-counts a fault however many queries are in flight.
		reply.PageFaults = poolStats.Faults - faultsBefore
		s.metrics.SetGauge("page_faults", float64(poolStats.Faults))
		s.metrics.SetGauge("buffer_hit_ratio", poolStats.HitRatio())
	}
	// The reply is the table itself: one candidate slab whose Nodes are
	// windows of the arena the engines unpacked into — no path is copied. A
	// degraded answer is the cost table alone.
	nT := len(res.Dests)
	reply.Paths = make([]protocol.CandidatePath, len(res.Dist))
	for c := range reply.Paths {
		cand := &reply.Paths[c]
		cand.Source, cand.Dest = res.Sources[c/nT], res.Dests[c%nT]
		if d := res.Dist[c]; !math.IsInf(d, 1) {
			cand.Found, cand.Cost = true, d
			if !q.DistanceOnly {
				cand.Nodes = res.Path(c)
			}
		}
	}
	s.stats.add(id, res.Stats)
	return reply, nil
}

// replyIdentity is the metric identity stamped on one reply: the data
// generation the query was evaluated under and the weight-content checksum of
// that snapshot. The zero value means unknown — the fleet router treats it as
// generation skew and retries rather than merging it.
type replyIdentity struct {
	generation uint64
	contentSum uint64
}

// liveIdentity returns the (generation, content checksum) pair of the metric
// live queries are admitted under right now. Mutable deployments read one
// pinned snapshot so the pair is consistent; immutable deployments report
// their constant identity.
func (s *Server) liveIdentity() (uint64, uint64) {
	if s.mutable == nil {
		return storage.GenerationOf(s.acc), ch.GraphChecksum(s.graph)
	}
	snap := s.mutable.Snapshot()
	return storage.GenerationOf(snap), ch.GraphChecksum(snap.Graph())
}

// evaluateProfile answers one profile query from its precustomized state. The
// identity is trivially stable: profile accessors are immutable (generation
// 0) and the content checksum is the profile graph's — so a fleet router can
// verify every shard answered from the same precustomized metric. A profile
// state never goes stale: its engines are bound to its accessor's constant
// generation.
func (s *Server) evaluateProfile(q protocol.ServerQuery) (search.Table, replyIdentity, error) {
	if s.profiles == nil {
		return search.Table{}, replyIdentity{}, fmt.Errorf("query requests weight profile %q but the server has no profiles configured", q.Profile)
	}
	st, err := s.profiles.state(q.Profile)
	if err != nil {
		return search.Table{}, replyIdentity{}, err
	}
	proc, _ := s.route(st, q)
	res, err := proc.EvaluateTable(q.Sources, q.Dests, q.DistanceOnly)
	return res, replyIdentity{contentSum: st.acc.Graph().ContentChecksum()}, err
}

// identityRetries bounds how many times evaluateLive discards an evaluation
// whose metric identity moved underneath it before stamping the reply
// unknown.
const identityRetries = 3

// evaluateLive answers one live-metric query and pins the identity of the
// metric that actually answered it. The identity is read before routing and
// re-read after evaluating: if the generation moved in between, a weight
// update raced the evaluation and the reply cannot honestly claim either
// identity — the evaluation is discarded (its route counter reversed) and
// retried. Under sustained churn the retry budget can exhaust; the reply is
// then stamped unknown (zero identity), which the fleet router refuses to
// merge — a shard under churn degrades to retries, never to a mixed-metric
// answer.
//
// Before routing onto the overlay, its content checksum and the engines'
// bound generation are compared against the current graph's (O(1): all sides
// are cached or atomic). A stale overlay state — a live weight update moved
// the graph past it — sends the query to the SSMD fallback instead of
// serving distances from the dead metric (see staleFallback).
func (s *Server) evaluateLive(q protocol.ServerQuery) (search.Table, replyIdentity, error) {
	for attempt := 0; ; attempt++ {
		gen1, sum1 := s.liveIdentity()
		st := s.live.Load()
		var proc *search.Processor
		var routed *metrics.Counter
		if st.overlay != nil && (s.overlayStale(st) || s.engineStale(st)) {
			proc, routed = s.staleFallback(st)
		} else {
			proc, routed = s.route(st, q)
		}
		res, err := proc.EvaluateTable(q.Sources, q.Dests, q.DistanceOnly)
		if errors.Is(err, search.ErrStaleEngine) {
			// A weight update landed between routing and the engine's own
			// verification. The overlay answer was refused, nothing stale was
			// served; re-evaluate on the always-current SSMD processor. The
			// overlay route counter bumped at routing time is reversed so the
			// ch/mtm/fallback counters keep summing to the queries actually
			// served by each route.
			routed.Add(-1)
			proc, routed = s.staleFallback(st)
			res, err = proc.EvaluateTable(q.Sources, q.Dests, q.DistanceOnly)
		}
		if err != nil {
			return res, replyIdentity{}, err
		}
		gen2, _ := s.liveIdentity()
		if gen1 == gen2 {
			// No update landed while evaluating: the evaluation pinned a
			// snapshot from this very window, so (gen1, sum1) is its identity.
			return res, replyIdentity{generation: gen1, contentSum: sum1}, nil
		}
		if attempt >= identityRetries {
			return res, replyIdentity{}, nil // unknown — router-side skew
		}
		routed.Add(-1) // discard: keep route counters = queries served
	}
}

// staleFallback diverts one live query off st's stale overlay onto its
// always-current SSMD processor: it counts the query in
// overlay_stale_queries and fallback_queries and kicks the background
// refresh that swaps a fresh state in.
func (s *Server) staleFallback(st *evalState) (*search.Processor, *metrics.Counter) {
	s.mStaleQueries.Add(1)
	s.mFallback.Add(1)
	s.kickRecustomize()
	return st.flat, s.mFallback
}

// route picks the processor of st that answers q and bumps that route's
// counter: the SSMD processor when st has no overlay (fallback_queries);
// otherwise pairwise CH for queries small enough (|S|·|T| ≤
// DefaultCHMaxPairs, inclusive) that per-pair bidirectional searches prune
// hardest (ch_queries), and the many-to-many bucket engine for strictly
// wider tables (mtm_queries). Live and profile queries both route here, so
// the three counters together count every query served. The second return is
// the counter bumped, which evaluateLive reverses when it abandons an
// evaluation.
func (s *Server) route(st *evalState, q protocol.ServerQuery) (*search.Processor, *metrics.Counter) {
	proc, routed := st.flat, s.mFallback
	if st.overlay != nil {
		if len(q.Sources)*len(q.Dests) <= DefaultCHMaxPairs {
			proc, routed = st.point, s.mCHQueries
		} else {
			proc, routed = st.table, s.mMTMQueries
		}
	}
	routed.Add(1)
	return proc, routed
}

// overlayStale reports whether st's overlay content no longer matches the
// current graph. Only asked of a state with an overlay, whose server is
// in-memory and therefore mutable.
func (s *Server) overlayStale(st *evalState) bool {
	return st.overlay.Checksum() != ch.GraphChecksum(storage.SnapshotOf(s.mutable).Graph())
}

// engineStale reports whether st's engines are bound to a generation behind
// the accessor's current one. This can lag even when the content checksum
// matches (an update that did not change any cost still bumps the
// generation); the processors' search.Generational check would refuse such
// engines, so routing treats it as staleness and the refresh rebinds them.
func (s *Server) engineStale(st *evalState) bool {
	return st.engine.Generation() != storage.GenerationOf(s.mutable)
}

// Overlay returns the currently installed contraction-hierarchy overlay
// (after a weight update and re-customization, the freshly customized one),
// or nil when the server runs without an overlay.
func (s *Server) Overlay() *ch.Overlay { return s.live.Load().overlay }

// MTMStats returns the many-to-many bucket engine's counters (tables
// evaluated, bucket entries deposited/scanned, arena high-water mark), or
// zeroes when the server has no overlay installed. The counters reset when a
// re-customization swaps the engine.
func (s *Server) MTMStats() ch.MTMStats {
	if st := s.live.Load(); st.overlay != nil {
		return st.mtm.Stats()
	}
	return ch.MTMStats{}
}

// WorkspacePoolStats returns the checkout counters of the server's search
// workspace pool — every query, batch worker, cached tree and CH search of
// this server draws from it.
func (s *Server) WorkspacePoolStats() search.WorkspacePoolStats {
	return s.wsPool.Stats()
}

// QueryLog returns a copy of the queries the server has observed, ordered by
// query ID (admission order).
func (s *Server) QueryLog() []LogEntry {
	return s.log.snapshot()
}

// TotalStats returns the accumulated search statistics and the number of
// obfuscated queries processed.
func (s *Server) TotalStats() (search.Stats, int) {
	return s.stats.total()
}

// IOStats returns the buffer-pool counters when the server runs the paged
// simulation, or zeroes otherwise.
func (s *Server) IOStats() storage.IOStats {
	if s.pool == nil {
		return storage.IOStats{}
	}
	return s.pool.Stats()
}

// TreeCacheStats returns the SSMD tree cache counters, or zeroes when the
// cache is disabled.
func (s *Server) TreeCacheStats() search.TreeCacheStats {
	if s.cache == nil {
		return search.TreeCacheStats{}
	}
	return s.cache.Stats()
}

// ResetStats zeroes the accumulated statistics and the query log.
func (s *Server) ResetStats() {
	s.stats.reset()
	s.log.reset()
	if s.pool != nil {
		s.pool.ResetStats()
	}
}

// publishDerivedMetrics mirrors the tree cache and workspace pool counters
// into the metrics registry. Called per batch and on Metrics() reads rather
// than per query, so the per-query hot path stays free of the registry's
// gauge lock.
func (s *Server) publishDerivedMetrics() {
	if s.cache != nil {
		st := s.cache.Stats()
		s.metrics.SetGauge("tree_cache_hit_ratio", st.HitRatio())
		s.metrics.SetGauge("tree_cache_hits", float64(st.Hits))
		s.metrics.SetGauge("tree_cache_misses", float64(st.Misses))
		s.metrics.SetGauge("tree_cache_resumes", float64(st.Resumes))
		s.metrics.SetGauge("tree_cache_evictions", float64(st.Evictions))
		s.metrics.SetGauge("tree_cache_invalidations", float64(st.Invalidations))
	}
	if st := s.live.Load(); st.overlay != nil {
		mt := st.mtm.Stats()
		s.metrics.SetGauge("mtm_tables", float64(mt.Tables))
		s.metrics.SetGauge("mtm_bucket_entries", float64(mt.BucketEntries))
		s.metrics.SetGauge("mtm_bucket_entries_scanned", float64(mt.BucketEntriesScanned))
		s.metrics.SetGauge("mtm_arena_high_water", float64(mt.ArenaHighWater))
		s.metrics.SetGauge("overlay_generation", float64(st.engine.Generation()))
		s.metrics.SetGauge("partition_cells", float64(st.overlay.PartitionCells()))
	}
	s.metrics.SetGauge("graph_generation", float64(storage.GenerationOf(s.acc)))
	s.metrics.SetGauge("recustomize_pending_cells", float64(s.pendingCellCount()))
	if in := s.ingest.Load(); in != nil {
		ist := in.Stats()
		s.metrics.SetGauge("ingest_events", float64(ist.Events))
		s.metrics.SetGauge("ingest_batches", float64(ist.Batches))
		s.metrics.SetGauge("ingest_coalesce_ratio", ist.CoalesceRatio())
		s.metrics.SetGauge("ingest_queue_depth", float64(ist.QueueDepth))
	}
	if s.profiles != nil {
		s.metrics.SetGauge("profile_layers", float64(s.profiles.layerCount()))
	}
	ws := s.wsPool.Stats()
	s.metrics.SetGauge("workspace_gets", float64(ws.Gets))
	s.metrics.SetGauge("workspace_in_flight", float64(ws.InFlight()))
	s.metrics.SetGauge("workspace_fresh", float64(ws.Fresh))
	s.metrics.SetGauge("workspace_reuse_ratio", ws.ReuseRatio())
}

// Metrics returns the server's instrumentation registry (query counters,
// latency histograms, I/O, cache and workspace pool gauges).
func (s *Server) Metrics() *metrics.Registry {
	s.publishDerivedMetrics()
	return s.metrics
}

// applyWeightUpdate answers a wire WeightUpdate: apply the changes, kick the
// background re-customization, and acknowledge with the server's post-apply
// metric identity.
func (s *Server) applyWeightUpdate(m protocol.WeightUpdate) (protocol.WeightUpdateAck, error) {
	if _, err := s.UpdateWeights(m.Changes); err != nil {
		return protocol.WeightUpdateAck{}, err
	}
	gen, sum := s.liveIdentity()
	return protocol.WeightUpdateAck{UpdateID: m.UpdateID, Generation: gen, ContentSum: sum}, nil
}
