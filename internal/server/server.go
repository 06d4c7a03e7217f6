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

// Server-level evaluation strategies layered on top of the search package's.
// StrategyCH and StrategyCHMTM require a contraction-hierarchy overlay
// (Config.CHOverlay or Config.BuildCH); StrategyHybrid uses one when
// available and degrades to pure SSMD sharing when not.
const (
	// StrategyCH evaluates every (source, dest) pair of Q(S, T) on the
	// contraction-hierarchy overlay — the preprocessed bidirectional search
	// of internal/ch, typically an order of magnitude faster than flat
	// Dijkstra per pair on large maps.
	StrategyCH = search.Strategy("ch")
	// StrategyCHMTM evaluates every query with the many-to-many bucket
	// algorithm on the overlay (internal/ch's MTM): |S|+|T| upward sweeps
	// joined at bucket entries instead of |S|·|T| bidirectional searches —
	// the fastest engine for wide candidate tables.
	StrategyCHMTM = search.Strategy("ch-mtm")
	// StrategyHybrid routes each query by shape: point-ish queries (up to
	// Config.CHMaxPairs candidate pairs) go pairwise to the CH overlay,
	// wider obfuscated queries go to the many-to-many bucket engine. When
	// the server has no overlay at all, every query falls back to the SSMD
	// spanning-tree sharing (and the tree cache, when enabled).
	StrategyHybrid = search.Strategy("hybrid")
)

// Config parameterises a Server.
type Config struct {
	// Strategy selects how Q(S,T) is evaluated (default: SSMD sharing).
	// Besides the search-package strategies, the server accepts StrategyCH,
	// StrategyCHMTM and StrategyHybrid, which run on the
	// contraction-hierarchy overlay.
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
	// Landmarks enables ALT preprocessing with the given number of landmark
	// nodes (0 disables it). Required when Strategy is
	// search.StrategyPairwiseALT; harmless otherwise. Preprocessing runs
	// |Landmarks| full Dijkstra trees at startup and is charged to the
	// buffer pool when Paged is set, exactly like an offline index build.
	Landmarks int
	// CHOverlay installs a prebuilt contraction-hierarchy overlay (usually
	// loaded from a cmd/opaque-preprocess file); it must Match the server's
	// graph. Required by StrategyCH and StrategyCHMTM unless BuildCH is
	// set; optional for StrategyHybrid, which falls back to pure SSMD
	// sharing without one.
	CHOverlay *ch.Overlay
	// BuildCH contracts the graph at startup when no CHOverlay is given —
	// the in-process equivalent of running cmd/opaque-preprocess. Expect
	// seconds of startup work on large maps; persisted overlays skip it.
	BuildCH bool
	// PartitionCells makes the startup contraction partition-aware: the
	// road map is cut into this many spatial cells
	// (roadnet.BuildPartition) and contracted cell by cell with boundary
	// nodes last, so the overlay customizes its cells in parallel, weight
	// updates are attributed to the cells they reach (cells_recustomized),
	// and paged deployments page overlay weight layers per cell.
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
	// not the live one). Requires the in-memory backend and, like live
	// updates, refuses the heuristic pairwise strategies whose bounds are
	// only admissible for the startup metric. With a CH strategy the overlay
	// must be customizable.
	Profiles []costmodel.WeightProfile
	// ProfileCapacity bounds how many profile layers stay hot behind the
	// LRU (0 = all configured profiles). Evicted layers rebuild on demand,
	// paying one customization pass.
	ProfileCapacity int
	// PrewarmProfiles builds every configured profile layer during New, so
	// the first query of each profile pays nothing. Off, layers build on
	// first use.
	PrewarmProfiles bool
	// CHMaxPairs is the StrategyHybrid cutover, with *inclusive* pairwise
	// semantics: queries with |S|·|T| ≤ CHMaxPairs are evaluated pairwise
	// on the CH overlay, queries with |S|·|T| > CHMaxPairs go to the
	// many-to-many bucket engine (or to the SSMD processor when the server
	// has no overlay). 0 means DefaultCHMaxPairs. Ignored by other
	// strategies.
	CHMaxPairs int
}

// DefaultCHMaxPairs is the hybrid cutover used when Config.CHMaxPairs is 0:
// obfuscated queries up to this many candidate pairs (inclusive) run
// pairwise on the CH overlay, whose bidirectional stopping rule prunes each
// individual search; strictly wider tables go to the many-to-many bucket
// engine, whose |S|+|T| exhaustive sweeps amortise across cells. Experiment
// E15 measures the crossover this constant encodes: MTM is fastest from
// 2×2 tables upward on both measured graph scales and pairwise wins only
// true point queries, so the default keeps just the point-ish shapes
// (1×1 … 2×2, where the two engines are within noise of each other)
// on the pairwise engine.
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

// chState bundles everything derived from one contraction-hierarchy overlay:
// the overlay itself, the two engines bound to it, and the processors that
// route queries onto them. The server holds the current state behind one
// atomic pointer so a background re-customization swaps a complete,
// consistent replacement in one store — queries either see the old state
// (and its staleness is caught by the routing check or the engines' own
// verification) or the new one, never a half-installed mix.
type chState struct {
	overlay      *ch.Overlay
	engine       *ch.Engine
	mtm          *ch.MTM
	chProcessor  *search.Processor
	mtmProcessor *search.Processor
}

// Server is the directions search server.
type Server struct {
	graph     *roadnet.Graph
	acc       storage.Accessor
	pool      *storage.BufferPool
	processor *search.Processor
	// mutable is the live-update view of the accessor — non-nil exactly for
	// in-memory deployments, where UpdateWeights is supported. Paged
	// deployments serve the page layout they were built over and reject
	// updates.
	mutable *storage.MutableGraph
	// layerPageBase is the first synthetic page ID of the per-cell overlay
	// weight layers in paged deployments: the graph's own pages occupy
	// [0, layerPageBase), cell c's weight layer is page layerPageBase+c and
	// the boundary top layer is page layerPageBase+cells. 0 when not paged.
	layerPageBase int
	// chSt is the current overlay state (see chState), nil when the server
	// runs without an overlay. Replaced wholesale by re-customization.
	chSt       atomic.Pointer[chState]
	chMaxPairs int
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
		// Overlay weight layers page through the same pool as the graph:
		// they get synthetic page IDs right after the graph's own pages.
		s.layerPageBase = store.NumPages()
	} else {
		// In-memory deployments serve through the mutable weight view, so
		// UpdateWeights works out of the box: queries pin immutable snapshots
		// (the processors do this per evaluation), updates swap the current
		// one atomically.
		s.mutable = storage.NewMutableGraph(g)
		s.acc = s.mutable
	}
	s.wsPool = search.NewWorkspacePool()

	// The CH strategies are server-level: queries route between the pairwise
	// overlay processor, the many-to-many overlay processor and the regular
	// multi-source processor, which keeps SSMD sharing for whatever the
	// overlay does not take (and for hybrid servers running without one).
	useCH := cfg.Strategy == StrategyCH || cfg.Strategy == StrategyCHMTM || cfg.Strategy == StrategyHybrid
	procStrategy := cfg.Strategy
	if useCH {
		procStrategy = search.StrategySSMD
	}

	opts := []search.ProcessorOption{
		search.WithStrategy(procStrategy),
		search.WithWorkspacePool(s.wsPool),
	}
	if cfg.Workers > 1 {
		opts = append(opts, search.WithWorkers(cfg.Workers))
	}
	if cfg.TreeCache > 0 {
		s.cache = search.NewTreeCacheWithPool(cfg.TreeCache, s.wsPool)
		opts = append(opts, search.WithTreeCache(s.cache))
	}
	if cfg.MaxConcurrentSearches > 0 {
		s.gate = search.NewGate(cfg.MaxConcurrentSearches)
		opts = append(opts, search.WithGate(s.gate))
	}
	if cfg.Landmarks > 0 {
		lm, err := search.PrepareLandmarks(s.acc, cfg.Landmarks, search.LandmarksFarthest)
		if err != nil {
			return nil, fmt.Errorf("server: preparing ALT landmarks: %w", err)
		}
		opts = append(opts, search.WithLandmarks(lm))
	} else if cfg.Strategy == search.StrategyPairwiseALT {
		return nil, fmt.Errorf("server: strategy %q requires Landmarks > 0", cfg.Strategy)
	}
	s.processor = search.NewProcessor(s.acc, opts...)

	if useCH {
		overlay := cfg.CHOverlay
		if overlay == nil && cfg.BuildCH {
			buildCfg := ch.DefaultBuildConfig()
			// A mutable deployment contracts customizable, so live weight
			// updates are absorbed by re-customization instead of leaving
			// the overlay permanently stale. The overlay carries more
			// shortcuts than a witness-pruned one; deployments that never
			// update weights can load a witness-pruned file instead.
			buildCfg.Customizable = s.mutable != nil
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
		if overlay == nil {
			// Hybrid degrades gracefully to the SSMD processor — a replica
			// can come up before its overlay file is provisioned. The pure
			// overlay strategies have nothing to run on and must refuse.
			if cfg.Strategy != StrategyHybrid {
				return nil, fmt.Errorf("server: strategy %q requires a CHOverlay (load one built by opaque-preprocess) or BuildCH", cfg.Strategy)
			}
		} else {
			if err := overlay.Matches(g); err != nil {
				return nil, fmt.Errorf("server: installing CH overlay: %w", err)
			}
			s.chMaxPairs = cfg.CHMaxPairs
			if s.chMaxPairs <= 0 {
				s.chMaxPairs = DefaultCHMaxPairs
			}
			s.chSt.Store(s.newCHState(overlay, storage.GenerationOf(s.acc)))
		}
	}
	if err := s.initProfiles(); err != nil {
		return nil, err
	}
	return s, nil
}

// newCHState derives the engines and processors for one overlay, binding
// both engines to the accessor generation the overlay's weights are valid
// for. Called at startup and by every re-customization swap.
func (s *Server) newCHState(overlay *ch.Overlay, gen uint64) *chState {
	st := &chState{overlay: overlay}
	st.engine = ch.NewEngine(overlay, s.wsPool)
	st.engine.BindGeneration(gen)
	st.mtm = ch.NewMTM(overlay, s.wsPool)
	st.mtm.BindGeneration(gen)

	chOpts := []search.ProcessorOption{
		search.WithStrategy(search.StrategyPointEngine),
		search.WithPointEngine(st.engine),
		search.WithWorkspacePool(s.wsPool),
	}
	if s.cfg.Workers > 1 {
		chOpts = append(chOpts, search.WithWorkers(s.cfg.Workers))
	}
	if s.gate != nil {
		chOpts = append(chOpts, search.WithGate(s.gate))
	}
	st.chProcessor = search.NewProcessor(s.acc, chOpts...)

	mtmOpts := []search.ProcessorOption{
		search.WithStrategy(search.StrategyTableEngine),
		search.WithTableEngine(st.mtm),
		search.WithWorkspacePool(s.wsPool),
	}
	if s.gate != nil {
		mtmOpts = append(mtmOpts, search.WithGate(s.gate))
	}
	st.mtmProcessor = search.NewProcessor(s.acc, mtmOpts...)
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
// 0) and the content checksum is the profile graph's.
func (s *Server) evaluateProfile(q protocol.ServerQuery) (search.Table, replyIdentity, error) {
	proc, contentSum, err := s.profileProcessor(q)
	if err != nil {
		return search.Table{}, replyIdentity{}, err
	}
	res, err := proc.EvaluateTable(q.Sources, q.Dests, q.DistanceOnly)
	return res, replyIdentity{contentSum: contentSum}, err
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
func (s *Server) evaluateLive(q protocol.ServerQuery) (search.Table, replyIdentity, error) {
	for attempt := 0; ; attempt++ {
		gen1, sum1 := s.liveIdentity()
		proc, routed := s.chooseProcessor(q)
		res, err := proc.EvaluateTable(q.Sources, q.Dests, q.DistanceOnly)
		if err != nil && errors.Is(err, search.ErrStaleEngine) {
			// A weight update landed between routing and the engine's own
			// verification. The overlay answer was refused, nothing stale was
			// served; re-evaluate on the always-current SSMD processor and let
			// the background re-customization catch the overlay up. The
			// overlay route counter bumped at routing time is reversed so the
			// ch/mtm/fallback counters keep summing to the queries actually
			// served by each route.
			routed.Add(-1)
			s.mStaleQueries.Add(1)
			s.mFallback.Add(1)
			routed = s.mFallback
			s.kickRecustomize()
			res, err = s.processor.EvaluateTable(q.Sources, q.Dests, q.DistanceOnly)
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

// chooseProcessor routes one query between the regular processor and the two
// overlay processors. StrategyCH sends everything pairwise to the overlay
// and StrategyCHMTM everything to the many-to-many bucket engine.
// StrategyHybrid routes by shape: queries small enough
// (|S|·|T| ≤ CHMaxPairs, inclusive) that per-pair bidirectional searches
// prune hardest go pairwise, strictly wider tables go to the many-to-many
// engine, and — when the server has no overlay at all — everything keeps
// SSMD's per-source sharing. The ch_queries / mtm_queries / fallback_queries
// counters record the routing decisions.
//
// Before routing onto the overlay, its content checksum and the engines'
// bound generation are compared against the current graph's (O(1): all
// sides are cached or atomic). A stale overlay state — a live weight update
// moved the graph past it — routes the query to the SSMD fallback instead
// of serving distances from the dead metric, counts it in
// overlay_stale_queries, and kicks the background refresh that swaps a
// fresh overlay state in.
//
// The second return is the route counter this call bumped (mFallback on the
// fallback routes, never nil); evaluateLive reverses it when the evaluation
// is abandoned — the engine refused the query and the fallback re-served it,
// or an identity race discarded the attempt — so every route counter keeps
// summing to the queries its route actually served.
func (s *Server) chooseProcessor(q protocol.ServerQuery) (*search.Processor, *metrics.Counter) {
	st := s.chSt.Load()
	if st == nil {
		s.mFallback.Add(1)
		return s.processor, s.mFallback
	}
	if s.overlayStale(st) || s.engineStale(st) {
		s.mStaleQueries.Add(1)
		s.mFallback.Add(1)
		s.kickRecustomize()
		return s.processor, s.mFallback
	}
	s.chargeOverlayLayers(st, q)
	switch s.cfg.Strategy {
	case StrategyCH:
		s.mCHQueries.Add(1)
		return st.chProcessor, s.mCHQueries
	case StrategyCHMTM:
		s.mMTMQueries.Add(1)
		return st.mtmProcessor, s.mMTMQueries
	default: // StrategyHybrid
		if len(q.Sources)*len(q.Dests) <= s.chMaxPairs {
			s.mCHQueries.Add(1)
			return st.chProcessor, s.mCHQueries
		}
		s.mMTMQueries.Add(1)
		return st.mtmProcessor, s.mMTMQueries
	}
}

// chargeOverlayLayers charges the buffer pool for the overlay weight layers
// one query routed onto a partitioned overlay touches. An upward CH search
// from node v reads exactly two layers: v's cell layer (skipped when v is a
// boundary node — it starts directly in the top layer) and the boundary top
// layer, which every query needs. The layers occupy synthetic page IDs after
// the graph's own pages (see layerPageBase), so cell layers compete for
// buffer-pool residency with graph pages exactly like any other I/O the
// simulation accounts: a deployment whose traffic concentrates in a few
// cells keeps those layers resident, and the page_faults counter shows the
// paging cost of scattering queries across many cells. No-op for in-memory
// or unpartitioned deployments.
func (s *Server) chargeOverlayLayers(st *chState, q protocol.ServerQuery) {
	cells := st.overlay.PartitionCells()
	if s.pool == nil || cells == 0 {
		return
	}
	seen := make(map[int]struct{}, len(q.Sources)+len(q.Dests))
	charge := func(nodes []roadnet.NodeID) {
		for _, v := range nodes {
			c, boundary := st.overlay.CellOfNode(v)
			if boundary {
				continue
			}
			if _, dup := seen[c]; dup {
				continue
			}
			seen[c] = struct{}{}
			s.pool.Access(storage.PageID(s.layerPageBase + c))
		}
	}
	charge(q.Sources)
	charge(q.Dests)
	s.pool.Access(storage.PageID(s.layerPageBase + cells)) // boundary top layer
}

// overlayStale reports whether st's overlay content no longer matches the
// current graph. Immutable deployments (paged storage) can never go stale.
func (s *Server) overlayStale(st *chState) bool {
	if s.mutable == nil {
		return false
	}
	return st.overlay.Checksum() != ch.GraphChecksum(storage.SnapshotOf(s.mutable).Graph())
}

// engineStale reports whether st's engines are bound to a generation behind
// the accessor's current one. This can lag even when the content checksum
// matches (an update that did not change any cost still bumps the
// generation); the processors' search.Generational check would refuse such
// engines, so routing treats it as staleness and the refresh rebinds them.
func (s *Server) engineStale(st *chState) bool {
	if s.mutable == nil {
		return false
	}
	return st.engine.Generation() != storage.GenerationOf(s.mutable)
}

// Overlay returns the currently installed contraction-hierarchy overlay
// (after a weight update and re-customization, the freshly customized one),
// or nil when the server runs without an overlay.
func (s *Server) Overlay() *ch.Overlay {
	if st := s.chSt.Load(); st != nil {
		return st.overlay
	}
	return nil
}

// MTMStats returns the many-to-many bucket engine's counters (tables
// evaluated, bucket entries deposited/scanned, arena high-water mark), or
// zeroes when the server has no overlay installed. The counters reset when a
// re-customization swaps the engine.
func (s *Server) MTMStats() ch.MTMStats {
	if st := s.chSt.Load(); st != nil {
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
	if st := s.chSt.Load(); st != nil {
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
