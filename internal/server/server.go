// Package server implements the OPAQUE directions search server: it holds the
// full road map in memory, evaluates obfuscated path queries Q(S, T) with the
// obfuscated path query processor of internal/search, keeps the query log an
// honest-but-curious operator would accumulate, and optionally exposes the
// whole thing over TCP for the networked deployment. The paper's
// disk-resident server (CCAM pages behind an LRU buffer pool) is an
// experiment, not a serving mode: internal/experiments simulates it.
//
// Two evaluation entry points are provided. Evaluate answers one obfuscated
// query; EvaluateBatch (engine.go) answers a whole batch on a worker pool,
// sharing SSMD spanning trees across queries through the tree cache, under a
// server-wide concurrency gate.
// Every server accepts live weight updates (UpdateWeights, update.go): every
// update publishes one epoch — the pinned weight snapshot, the CH overlay
// re-customized for it and the engine bound to it, behind one atomic pointer —
// and every query evaluates on the epoch it loaded, stamping that epoch's
// metric identity on its reply. The hot path is free of global mutexes — the
// query log and statistics are striped across shards and metrics use atomic
// counters — and free of per-query label allocation: every search runs on an
// epoch-stamped workspace that package search draws from the server's
// search.WorkspacePool (see the "query hot path" notes in internal/search).
package server

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"opaque/internal/ch"
	"opaque/internal/metrics"
	"opaque/internal/protocol"
	"opaque/internal/roadnet"
	"opaque/internal/search"
	"opaque/internal/storage"
)

// StrategyHybrid serves through the contraction-hierarchy overlay
// (Config.CHOverlay or Config.BuildCH): every query, 1×1 included, is one
// many-to-many bucket table on the overlay. When the server has no overlay
// at all, every query falls back to the SSMD spanning-tree sharing (and the
// tree cache, when enabled).
const StrategyHybrid = search.Strategy("hybrid")

// Config parameterises a Server.
type Config struct {
	// Strategy selects how Q(S,T) is served: search.StrategySSMD (also the
	// zero value) answers every query with SSMD sharing and takes no
	// overlay; StrategyHybrid serves through the CH overlay. New refuses
	// anything else. search.StrategyPairwise is the per-pair baseline of
	// the paper's experiments, not a serving strategy.
	Strategy search.Strategy
	// BatchWorkers bounds how many queries of one EvaluateBatch call run
	// concurrently (default: GOMAXPROCS). It is the batch engine's only
	// parallelism: each query evaluates its source rows one after another.
	BatchWorkers int
	// MaxConcurrentSearches caps the total number of searches in flight —
	// SSMD per-source searches and many-to-many tables, one slot each —
	// across all queries and batches, under one server-wide semaphore so
	// concurrent batches cannot oversubscribe the machine. 0 means no cap.
	MaxConcurrentSearches int
	// TreeCache enables the SSMD tree cache with capacity for that many
	// settled spanning trees (see search.TreeCache): obfuscated queries
	// whose source sets overlap reuse each other's Dijkstra trees instead
	// of recomputing them. 0 disables the cache. Only StrategySSMD benefits.
	// Each cached tree costs O(nodes) memory. The cache changes reported
	// search statistics (cache hits count only incremental work) but never
	// the returned paths.
	TreeCache int
	// KeepLog records every received query for adversary analysis.
	KeepLog bool
	// CHOverlay installs a prebuilt contraction-hierarchy overlay (usually
	// loaded from a cmd/opaque-preprocess file); it must Match the server's
	// graph. StrategyHybrid only; hybrid without an overlay falls back to
	// pure SSMD sharing.
	// New takes the overlay over: the server keeps no reference to it beyond
	// the installed state, so the first re-customization after a weight
	// update releases it.
	CHOverlay *ch.Overlay
	// BuildCH contracts the graph at startup when no CHOverlay is given —
	// the in-process equivalent of running cmd/opaque-preprocess. Expect
	// seconds of startup work on large maps; persisted overlays skip it.
	BuildCH bool
}

// DefaultConfig returns an SSMD server with logging enabled. The tree cache
// is off by default so single-query experiments report cold-search work;
// batch deployments enable it via TreeCache.
func DefaultConfig() Config {
	return Config{Strategy: search.StrategySSMD, KeepLog: true}
}

// LogEntry is one obfuscated query as the server saw it — the only
// information the semi-trusted operator ever receives about user intent.
type LogEntry struct {
	QueryID uint64
	Sources []roadnet.NodeID
	Dests   []roadnet.NodeID
	// Profile is always empty: queries carry no metric name. It stays only
	// because bench/oracle.go reads it.
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
// strategy and overlay settings on an ssmd server (which would be silently
// ignored).
func (cfg Config) validate() error {
	switch cfg.Strategy {
	case "", search.StrategySSMD:
		if cfg.CHOverlay != nil || cfg.BuildCH {
			return &ConfigError{"Strategy", "ssmd serves without an overlay; CHOverlay and BuildCH need hybrid"}
		}
	case StrategyHybrid:
	default:
		return &ConfigError{"Strategy", fmt.Sprintf("%q is not a serving strategy (want %q or %q)", cfg.Strategy, search.StrategySSMD, StrategyHybrid)}
	}
	return nil
}

// evalState is one epoch: everything one query is evaluated with and the
// metric identity its reply carries. acc is the data it reads — one weight
// snapshot, immutable by type — with the flat SSMD processor over it and,
// when the server serves through an overlay, the overlay customized for
// exactly that data and the many-to-many engine bound to it. The live epoch
// sits behind one atomic pointer that RecustomizeNow replaces wholesale, so a
// query sees one whole epoch, never a half-installed mix, and its answer is
// exact on the snapshot ident names.
type evalState struct {
	acc     *storage.GraphSnapshot
	ident   replyIdentity
	flat    *search.Processor
	overlay *ch.Overlay // nil: the server runs without an overlay
	mtm     *ch.MTM
}

// Server is the directions search server.
type Server struct {
	// weights is the live-update view of the road map: queries read the
	// immutable snapshot their epoch holds, UpdateWeights swaps the current
	// one atomically.
	weights *storage.MutableGraph
	// live is the epoch live-metric queries evaluate with; never nil.
	// Replaced wholesale by RecustomizeNow, its only publisher.
	live atomic.Pointer[evalState]
	// recustomizeMu serialises publishers.
	recustomizeMu sync.Mutex
	cache         *search.TreeCache
	gate          search.Gate
	// wsPool owns the epoch-stamped search workspaces every query of this
	// server runs on: every batch worker checks workspaces out of this one
	// pool, so steady-state evaluation performs no per-query label
	// allocation no matter how traffic is shaped.
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
	mMTMQueries   *metrics.Counter
	mFallback     *metrics.Counter
	mWeightUpd    *metrics.Counter
	mRecustomize  *metrics.Counter
	mRecustFail   *metrics.Counter
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
	s := &Server{weights: storage.NewMutableGraph(g), cfg: cfg, metrics: metrics.NewRegistry()}
	s.mQueries = s.metrics.CounterVar("queries_processed")
	s.mFailed = s.metrics.CounterVar("queries_failed")
	s.mPairs = s.metrics.CounterVar("candidate_pairs")
	s.mSettled = s.metrics.CounterVar("nodes_settled")
	s.mBatches = s.metrics.CounterVar("batches_processed")
	s.mBatchQueries = s.metrics.CounterVar("batch_queries")
	s.mMTMQueries = s.metrics.CounterVar("mtm_queries")
	s.mFallback = s.metrics.CounterVar("fallback_queries")
	s.mWeightUpd = s.metrics.CounterVar("weight_updates")
	s.mRecustomize = s.metrics.CounterVar("recustomize_runs")
	s.mRecustFail = s.metrics.CounterVar("recustomize_failures")
	s.hLatency = s.metrics.HistogramVar("query_latency")
	s.hBatchLatency = s.metrics.HistogramVar("batch_latency")
	s.wsPool = search.NewWorkspacePool()

	if cfg.TreeCache > 0 {
		s.cache = search.NewTreeCacheWithPool(cfg.TreeCache, s.wsPool)
	}
	if cfg.MaxConcurrentSearches > 0 {
		s.gate = search.NewGate(cfg.MaxConcurrentSearches)
	}

	if overlay == nil && cfg.BuildCH {
		built, err := ch.BuildCustomizable(g)
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
	s.live.Store(s.newEvalState(s.weights.Snapshot(), overlay))
	return s, nil
}

// newEvalState builds the epoch over acc, a weight snapshot that does not
// move under it: its identity — acc's generation and content checksum — the
// flat SSMD processor over the server's tree cache and, for a non-nil overlay
// customized for acc's weights, the many-to-many engine bound to that
// generation. Called at startup and by every publication.
func (s *Server) newEvalState(acc *storage.GraphSnapshot, overlay *ch.Overlay) *evalState {
	gen := acc.Generation()
	st := &evalState{
		acc:     acc,
		ident:   replyIdentity{generation: gen, contentSum: acc.Graph().ContentChecksum()},
		overlay: overlay,
		flat: search.NewProcessor(acc, search.WithTreeCache(s.cache), search.WithWorkspacePool(s.wsPool),
			search.WithGate(s.gate)),
	}
	if overlay != nil {
		st.mtm = ch.NewMTM(overlay, nil)
		st.mtm.BindGeneration(gen)
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

// Graph returns the server's road map: the current weight snapshot, which
// changes identity on every applied update, before queries see it.
func (s *Server) Graph() *roadnet.Graph { return s.weights.Snapshot().Graph() }

// Evaluate processes one obfuscated path query and returns all candidate
// result paths. This is the entry point used both by the in-process
// deployment and by the multiplexed transport's handler (mux.go);
// EvaluateBatch fans it out over a worker pool for whole batches.
//
// The reply's candidate paths all sub-slice one node arena that belongs to
// the reply alone: nothing the server retains (the query log copies its
// endpoint sets, the tree cache keeps trees, not results) aliases it.
//
// A query that names a map (ServerQuery.Topology) is refused with
// protocol.ErrTopologyMismatch unless it is this server's, and otherwise
// answered with the server's map on the reply (ServerReply.Map), so that its
// paths travel as out-arc ordinals the asker resolves on its own copy.
func (s *Server) Evaluate(q protocol.ServerQuery) (protocol.ServerReply, error) {
	if len(q.Sources) == 0 || len(q.Dests) == 0 {
		return protocol.ServerReply{}, fmt.Errorf("server: query %d has empty source or destination set", q.QueryID)
	}
	st := s.live.Load()
	var bound *roadnet.Graph
	if q.Topology != 0 {
		bound = st.acc.Graph()
		if sum := bound.TopologyChecksum(); sum != q.Topology {
			return protocol.ServerReply{}, fmt.Errorf("server: query %d: %w: it names map %016x, this server holds %016x",
				q.QueryID, protocol.ErrTopologyMismatch, q.Topology, sum)
		}
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
		})
	}
	start := time.Now()
	res, err := s.route(st, q)
	if err != nil {
		s.mFailed.Add(1)
		return protocol.ServerReply{}, fmt.Errorf("server: evaluating query %d: %w", id, err)
	}
	s.hLatency.Observe(time.Since(start))
	s.mQueries.Add(1)
	s.mPairs.Add(int64(len(q.Sources) * len(q.Dests)))
	s.mSettled.Add(int64(res.Stats.SettledNodes))
	// The reply is the table itself: one candidate slab whose Nodes are
	// windows of the arena the engines unpacked into — no path is copied. A
	// degraded answer is the cost table alone.
	reply := protocol.ServerReply{
		QueryID:      id,
		Paths:        protocol.CandidatesOf(&res, q.DistanceOnly),
		SettledNodes: res.Stats.SettledNodes,
		Generation:   st.ident.generation,
		ContentSum:   st.ident.contentSum,
		Degraded:     q.DistanceOnly,
		Map:          bound,
	}
	s.stats.add(id, res.Stats)
	return reply, nil
}

// replyIdentity is the metric identity of one epoch, stamped on every reply
// evaluated on it: the data generation of the epoch's snapshot and that
// snapshot's weight-content checksum. A zero ContentSum on a reply means
// unknown.
type replyIdentity struct {
	generation uint64
	contentSum uint64
}

// route evaluates q on st and bumps the counter of the route that answered
// it: the many-to-many bucket engine, holding one gate slot for the whole
// table, whenever st has an overlay (mtm_queries), the SSMD processor
// otherwise (fallback_queries). Only the engine has a distance-only fast
// path; the SSMD processor computes paths regardless. Every query routes
// here, so the two counters together count every query served.
func (s *Server) route(st *evalState, q protocol.ServerQuery) (search.Table, error) {
	if st.overlay == nil {
		s.mFallback.Add(1)
		return st.flat.Evaluate(q.Sources, q.Dests)
	}
	s.mMTMQueries.Add(1)
	s.gate.Acquire()
	defer s.gate.Release()
	if q.DistanceOnly {
		return st.mtm.EvaluateDistances(st.acc, q.Sources, q.Dests)
	}
	return st.mtm.EvaluateTable(st.acc, q.Sources, q.Dests)
}

// Overlay returns the published epoch's contraction-hierarchy overlay (after
// a weight update, the one re-customized for it), or nil when the server runs
// without an overlay.
func (s *Server) Overlay() *ch.Overlay { return s.live.Load().overlay }

// MTMStats returns the many-to-many bucket engine's counters (tables
// evaluated, bucket entries deposited/scanned, arena high-water mark), or
// zeroes when the server has no overlay installed. The counters reset when a
// publication swaps the engine.
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

// TreeCacheStats returns the SSMD tree cache counters, or zeroes when the
// cache is disabled.
func (s *Server) TreeCacheStats() search.TreeCacheStats {
	if s.cache == nil {
		return search.TreeCacheStats{}
	}
	return s.cache.Stats()
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
	st := s.live.Load()
	if st.overlay != nil {
		mt := st.mtm.Stats()
		s.metrics.SetGauge("mtm_tables", float64(mt.Tables))
		s.metrics.SetGauge("mtm_bucket_entries", float64(mt.BucketEntries))
		s.metrics.SetGauge("mtm_bucket_entries_scanned", float64(mt.BucketEntriesScanned))
		s.metrics.SetGauge("mtm_arena_high_water", float64(mt.ArenaHighWater))
	}
	// graph_generation − overlay_generation is the visibility lag, in
	// generations: updates applied but not yet published.
	s.metrics.SetGauge("overlay_generation", float64(st.ident.generation))
	s.metrics.SetGauge("graph_generation", float64(s.weights.Generation()))
	ws := s.wsPool.Stats()
	s.metrics.SetGauge("workspace_gets", float64(ws.Gets))
	s.metrics.SetGauge("workspace_in_flight", float64(ws.InFlight()))
	s.metrics.SetGauge("workspace_fresh", float64(ws.Fresh))
	s.metrics.SetGauge("workspace_reuse_ratio", ws.ReuseRatio())
}

// Metrics returns the server's instrumentation registry (query counters,
// latency histograms, cache and workspace pool gauges).
func (s *Server) Metrics() *metrics.Registry {
	s.publishDerivedMetrics()
	return s.metrics
}

// applyWeightUpdate answers a wire WeightUpdate: apply and publish the
// changes, then acknowledge with the identity of the published epoch — the
// ack means the update is visible. A refusal of the changes themselves,
// which leaves the served graph untouched, is answered under
// protocol.UpdateRefusedMsg so the router can tell it from a failure after
// the apply.
func (s *Server) applyWeightUpdate(m protocol.WeightUpdate) (protocol.WeightUpdateAck, error) {
	if _, err := s.UpdateWeights(m.Changes); err != nil {
		if errors.Is(err, roadnet.ErrInvalidChange) {
			err = fmt.Errorf("%s: %w", protocol.UpdateRefusedMsg, err)
		}
		return protocol.WeightUpdateAck{}, err
	}
	id := s.live.Load().ident
	return protocol.WeightUpdateAck{UpdateID: m.UpdateID, Generation: id.generation, ContentSum: id.contentSum}, nil
}
