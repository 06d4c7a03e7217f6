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
)

// Processor is the obfuscated path query processor installed in the
// directions search server (Figure 5/6 of the paper). It evaluates Q(S, T)
// queries against an Accessor using a configurable strategy, optionally
// fanning the per-source searches out over a bounded number of goroutines.
type Processor struct {
	acc      storage.Accessor
	strategy Strategy
	workers  int
	cache    *TreeCache
	gate     Gate
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
	if p.strategy != StrategyPairwise {
		return Stats{}, fmt.Errorf("search: unknown strategy %q", p.strategy)
	}
	// The pairwise baseline: one independent Dijkstra per destination on one
	// workspace, each materialising its own path.
	w := p.wsPool.Get(acc.NumNodes())
	defer w.Release()
	var stats Stats
	for _, d := range dests {
		path, st, err := w.Dijkstra(acc, source, d)
		if err != nil {
			return stats, err
		}
		t.appendPath(path, source, d)
		stats = stats.Add(st)
	}
	return stats, nil
}

// Evaluate processes the obfuscated path query Q(sources, dests) into its
// flat form: the distance table and every candidate result path, appended by
// the per-source searches into one node arena. The whole evaluation runs
// against one pinned snapshot of the accessor's data (see pin), so concurrent
// weight updates never produce a mixed-generation table.
func (p *Processor) Evaluate(sources, dests []roadnet.NodeID) (Table, error) {
	acc := p.pin()
	if err := p.validateQuery(acc, sources, dests); err != nil {
		return Table{}, err
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
