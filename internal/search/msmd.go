package search

import (
	"fmt"
	"sync"

	"opaque/internal/roadnet"
	"opaque/internal/storage"
)

// Strategy selects how the obfuscated path query processor evaluates Q(S, T).
type Strategy string

const (
	// StrategySSMD runs one single-source multi-destination Dijkstra per
	// source, sharing the spanning tree across all destinations — the
	// evaluation the paper designs OPAQUE around (cost
	// O(Σ_s max_t ||s,t||²), Lemma 1).
	StrategySSMD Strategy = "ssmd"
	// StrategyPairwise runs an independent point-to-point Dijkstra for every
	// (s, t) pair in S×T — the naive evaluation an oblivious server would
	// perform; used as the comparison baseline in experiments E3–E5.
	StrategyPairwise Strategy = "pairwise"
	// StrategyPairwiseAStar runs an independent A* search per pair; a
	// stronger pairwise baseline that still pays the |S|·|T| multiplier.
	StrategyPairwiseAStar Strategy = "pairwise-astar"
	// StrategyTableEngine evaluates the whole Q(S, T) table in one shot on a
	// pluggable many-to-many engine supplied with WithTableEngine — no
	// per-source fan-out, the engine owns the entire evaluation. This is how
	// the server installs the CH many-to-many bucket engine (internal/ch's
	// MTM) for every query on an overlay, without this package depending on
	// it.
	StrategyTableEngine Strategy = "table-engine"
)

// TableEngine is a pluggable many-to-many engine the processor can hand a
// whole Q(S, T) evaluation to (StrategyTableEngine). The contraction-
// hierarchy bucket engine (internal/ch's MTM) implements it.
//
// EvaluateTable must return a Table whose paths and distances agree with
// per-pair Dijkstra on the same accessor; EvaluateDistances is the
// distance-only fast path — Dist filled, no paths — for callers that never
// read routes. An implementation backed by a preprocessed index must verify
// the accessor presents exactly the data it was built from and return an
// error wrapping ErrStaleEngine otherwise, rather than answer from a stale or
// mismatched index (internal/ch checksum-binds its overlay this way); engines
// additionally implementing Generational get the generation half of that
// check performed by the processor up front. Implementations must reject
// empty source or destination sets with ErrEmptyQuery, and must be safe for
// concurrent use.
type TableEngine interface {
	EvaluateTable(acc storage.Accessor, sources, dests []roadnet.NodeID) (Table, error)
	EvaluateDistances(acc storage.Accessor, sources, dests []roadnet.NodeID) (Table, error)
}

// MSMDResult is the nested view of one evaluated obfuscated path query
// Q(S, T) (Table.MSMD): the |S|·|T| candidate result paths and distances,
// addressable by (source, dest). The paths are windows of the evaluation's
// one node arena; treat them as read-only.
type MSMDResult struct {
	Sources []roadnet.NodeID
	Dests   []roadnet.NodeID
	// Paths[i][j] is the path from Sources[i] to Dests[j]; empty when
	// unreachable. Nil (no rows at all) on distance-only evaluations
	// (EvaluateDistances), whose callers never pay for path
	// materialisation.
	Paths [][]Path
	// Dists[i][j] is the shortest-path distance from Sources[i] to
	// Dests[j], +Inf when unreachable. Filled by every evaluation, so
	// distance-only consumers (candidate filtering, cost experiments) need
	// not walk Paths.
	Dists [][]float64
	Stats Stats
}

// Path returns the candidate path for the (source, dest) pair and whether the
// pair belongs to the query. The second return is false for distance-only
// results, which carry no paths.
func (r MSMDResult) Path(source, dest roadnet.NodeID) (Path, bool) {
	si, sok := indexOf(r.Sources, source)
	di, dok := indexOf(r.Dests, dest)
	if !sok || !dok || r.Paths == nil {
		return Path{}, false
	}
	return r.Paths[si][di], true
}

// Distance returns the candidate distance for the (source, dest) pair (+Inf
// when unreachable) and whether the pair belongs to the query.
func (r MSMDResult) Distance(source, dest roadnet.NodeID) (float64, bool) {
	si, sok := indexOf(r.Sources, source)
	di, dok := indexOf(r.Dests, dest)
	if !sok || !dok || r.Dists == nil {
		return 0, false
	}
	return r.Dists[si][di], true
}

// HasPaths reports whether the result carries materialised candidate paths
// (false for distance-only evaluations).
func (r MSMDResult) HasPaths() bool { return r.Paths != nil }

// NumCandidates returns the number of candidate result paths (|S|·|T|).
func (r MSMDResult) NumCandidates() int { return len(r.Sources) * len(r.Dests) }

// AllPaths returns every candidate path in row-major (source, dest) order.
func (r MSMDResult) AllPaths() []Path {
	out := make([]Path, 0, r.NumCandidates())
	for _, row := range r.Paths {
		out = append(out, row...)
	}
	return out
}

func indexOf(ids []roadnet.NodeID, id roadnet.NodeID) (int, bool) {
	for i, v := range ids {
		if v == id {
			return i, true
		}
	}
	return -1, false
}

// Processor is the obfuscated path query processor installed in the
// directions search server (Figure 5/6 of the paper). It evaluates Q(S, T)
// queries against an Accessor using a configurable strategy, optionally
// fanning the per-source searches out over a bounded number of goroutines.
type Processor struct {
	acc         storage.Accessor
	strategy    Strategy
	workers     int
	tableEngine TableEngine
	cache       *TreeCache
	gate        Gate
	// wsPool supplies the epoch-stamped search workspaces the per-source
	// searches run on: each evaluation row checks one workspace out for its
	// whole lifetime (every destination of a pairwise row reuses the same
	// workspace), so the steady-state hot path allocates no label arrays.
	wsPool *WorkspacePool
}

// ProcessorOption customises a Processor.
type ProcessorOption func(*Processor)

// WithStrategy selects the evaluation strategy (default StrategySSMD).
func WithStrategy(s Strategy) ProcessorOption {
	return func(p *Processor) { p.strategy = s }
}

// WithWorkers sets the number of concurrent per-source searches (default 1 =
// sequential). Concurrency changes wall-clock time but not the algorithmic
// work counted in Stats.
func WithWorkers(n int) ProcessorOption {
	return func(p *Processor) {
		if n > 0 {
			p.workers = n
		}
	}
}

// WithTableEngine installs a pluggable many-to-many engine, required by
// StrategyTableEngine. The engine evaluates the whole Q(S, T) table in one
// call; the processor contributes validation, the gate and nothing else.
func WithTableEngine(te TableEngine) ProcessorOption {
	return func(p *Processor) { p.tableEngine = te }
}

// WithTreeCache installs an SSMD tree cache: StrategySSMD evaluations answer
// each per-source search from cached resumable spanning trees keyed by
// (source, accessor generation) instead of running Dijkstra from scratch.
// Other strategies ignore the cache. Cached evaluation changes the reported
// Stats (only incremental work is counted) but never the resulting paths.
func WithTreeCache(c *TreeCache) ProcessorOption {
	return func(p *Processor) { p.cache = c }
}

// WithGate bounds the processor's per-source searches with a shared
// semaphore, composing per-query parallelism under a server-wide concurrency
// cap. A nil gate (the default) imposes no bound.
func WithGate(g Gate) ProcessorOption {
	return func(p *Processor) { p.gate = g }
}

// WithWorkspacePool shares a workspace pool with the processor, letting a
// server reuse one pool across every processor, batch worker and query it
// runs. The default is the package's shared pool.
func WithWorkspacePool(wp *WorkspacePool) ProcessorOption {
	return func(p *Processor) {
		if wp != nil {
			p.wsPool = wp
		}
	}
}

// NewProcessor builds a processor over acc.
func NewProcessor(acc storage.Accessor, opts ...ProcessorOption) *Processor {
	p := &Processor{acc: acc, strategy: StrategySSMD, workers: 1, wsPool: sharedWorkspaces}
	for _, o := range opts {
		o(p)
	}
	return p
}

// Strategy returns the configured evaluation strategy.
func (p *Processor) Strategy() Strategy { return p.strategy }

// Accessor returns the graph accessor the processor evaluates against.
func (p *Processor) Accessor() storage.Accessor { return p.acc }

// pin resolves the accessor one whole evaluation runs against. For mutable
// accessors (storage.Snapshotter) this is an immutable snapshot of the
// current data, so a query admitted while weight updates land concurrently
// still computes an internally consistent table: every cell reflects one
// generation, all-old or all-new, never a mix.
func (p *Processor) pin() storage.Accessor { return storage.SnapshotOf(p.acc) }

// validateQuery rejects empty (ErrEmptyQuery) or out-of-range endpoint sets.
func (p *Processor) validateQuery(acc storage.Accessor, sources, dests []roadnet.NodeID) error {
	if len(sources) == 0 || len(dests) == 0 {
		return fmt.Errorf("search: obfuscated query needs at least one source and one destination (got |S|=%d, |T|=%d): %w",
			len(sources), len(dests), ErrEmptyQuery)
	}
	for _, s := range sources {
		if !validNode(acc, s) {
			return fmt.Errorf("search: invalid source node %d", s)
		}
	}
	for _, t := range dests {
		if !validNode(acc, t) {
			return fmt.Errorf("search: invalid destination node %d", t)
		}
	}
	return nil
}

// evaluateOnTableEngine hands the whole query to the installed TableEngine
// under one gate slot, distance-only or with paths.
func (p *Processor) evaluateOnTableEngine(acc storage.Accessor, sources, dests []roadnet.NodeID, distancesOnly bool) (Table, error) {
	if p.tableEngine == nil {
		return Table{}, fmt.Errorf("search: strategy %q requires WithTableEngine", StrategyTableEngine)
	}
	if !engineCurrent(p.tableEngine, acc) {
		return Table{}, fmt.Errorf("search: table engine generation trails the accessor: %w", ErrStaleEngine)
	}
	p.gate.Acquire()
	defer p.gate.Release()
	if distancesOnly {
		return p.tableEngine.EvaluateDistances(acc, sources, dests)
	}
	return p.tableEngine.EvaluateTable(acc, sources, dests)
}

// appendRow evaluates source against every destination under one gate slot
// and appends the row's cells to t.
func (p *Processor) appendRow(acc storage.Accessor, source roadnet.NodeID, dests []roadnet.NodeID, t *Table) (Stats, error) {
	p.gate.Acquire()
	defer p.gate.Release()
	if p.strategy == StrategySSMD || p.strategy == "" {
		if p.cache != nil {
			// Cached trees carry their own long-lived workspaces; no per-row
			// checkout is needed.
			return p.cache.AppendPaths(acc, source, dests, t)
		}
		w := p.wsPool.Get(acc.NumNodes())
		defer w.Release()
		return w.AppendSSMD(acc, source, dests, t)
	}
	// The pairwise baselines: one independent search per destination on one
	// workspace, each materialising its own path.
	var pair func(w *Workspace, d roadnet.NodeID) (Path, Stats, error)
	switch p.strategy {
	case StrategyPairwise:
		pair = func(w *Workspace, d roadnet.NodeID) (Path, Stats, error) { return w.Dijkstra(acc, source, d) }
	case StrategyPairwiseAStar:
		pair = func(w *Workspace, d roadnet.NodeID) (Path, Stats, error) { return w.AStarScaled(acc, source, d, 0.8) }
	default:
		return Stats{}, fmt.Errorf("search: unknown strategy %q", p.strategy)
	}
	w := p.wsPool.Get(acc.NumNodes())
	defer w.Release()
	var stats Stats
	for _, d := range dests {
		path, st, err := pair(w, d)
		if err != nil {
			return stats, err
		}
		t.appendPath(path, source, d)
		stats = stats.Add(st)
	}
	return stats, nil
}

// EvaluateTable processes the obfuscated path query Q(sources, dests) into
// its flat form: the distance table and — unless distancesOnly — every
// candidate result path, appended by the engines into one node arena. The
// whole evaluation runs against one pinned snapshot of the accessor's data
// (see pin), so concurrent weight updates never produce a mixed-generation
// table. distancesOnly is a genuine fast path only with a table engine
// installed (no route is unpacked or materialised anywhere); the per-source
// strategies compute paths regardless and return them.
func (p *Processor) EvaluateTable(sources, dests []roadnet.NodeID, distancesOnly bool) (Table, error) {
	acc := p.pin()
	if err := p.validateQuery(acc, sources, dests); err != nil {
		return Table{}, err
	}
	if p.strategy == StrategyTableEngine {
		return p.evaluateOnTableEngine(acc, sources, dests, distancesOnly)
	}
	res := NewTable(sources, dests)

	if p.workers <= 1 || len(sources) == 1 {
		for _, s := range sources {
			stats, err := p.appendRow(acc, s, dests, &res)
			if err != nil {
				return Table{}, err
			}
			res.Stats = res.Stats.Add(stats)
		}
		return res, nil
	}

	// Bounded fan-out over sources: every row is evaluated into a table of
	// its own and the rows are concatenated in source order afterwards.
	rows := make([]Table, len(sources))
	errs := make([]error, len(sources))
	jobs := make(chan int)
	var wg sync.WaitGroup
	workers := p.workers
	if workers > len(sources) {
		workers = len(sources)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				rows[i] = Table{Dist: make([]float64, 0, len(dests)), Ends: make([]int32, 0, len(dests))}
				rows[i].Stats, errs[i] = p.appendRow(acc, sources[i], dests, &rows[i])
			}
		}()
	}
	for i := range sources {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	total := 0
	for i := range rows {
		if errs[i] != nil {
			return Table{}, errs[i]
		}
		total += len(rows[i].Nodes)
	}
	res.Nodes = make([]roadnet.NodeID, 0, total)
	for i := range rows {
		res.appendTable(&rows[i])
		res.Stats = res.Stats.Add(rows[i].Stats)
	}
	return res, nil
}

// Evaluate processes the obfuscated path query Q(sources, dests) and returns
// every candidate result path and the distance matrix — the nested view of
// EvaluateTable.
func (p *Processor) Evaluate(sources, dests []roadnet.NodeID) (MSMDResult, error) {
	t, err := p.EvaluateTable(sources, dests, false)
	if err != nil {
		return MSMDResult{}, err
	}
	return t.MSMD(), nil
}

// EvaluateDistances processes Q(sources, dests) for callers that only need
// the |S|×|T| distance matrix (see EvaluateTable's distancesOnly).
func (p *Processor) EvaluateDistances(sources, dests []roadnet.NodeID) (MSMDResult, error) {
	t, err := p.EvaluateTable(sources, dests, true)
	if err != nil {
		return MSMDResult{}, err
	}
	return t.MSMD(), nil
}
