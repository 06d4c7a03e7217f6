package search

import (
	"fmt"

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
// queries against an Accessor using a configurable strategy, one source row
// after another. A Processor is safe for concurrent use: the server runs
// many Evaluate calls at once under one shared Gate.
type Processor struct {
	acc      storage.Accessor
	strategy Strategy
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

// WithTreeCache installs an SSMD tree cache: StrategySSMD evaluations answer
// each per-source search from cached resumable spanning trees keyed by
// (source, accessor generation) instead of running Dijkstra from scratch.
// Other strategies ignore the cache. Cached evaluation changes the reported
// Stats (only incremental work is counted) but never the resulting paths.
func WithTreeCache(c *TreeCache) ProcessorOption {
	return func(p *Processor) { p.cache = c }
}

// WithGate bounds the processor's per-source searches with a shared
// semaphore, so concurrent evaluations stay under a server-wide concurrency
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
	p := &Processor{acc: acc, strategy: StrategySSMD, wsPool: sharedWorkspaces}
	for _, o := range opts {
		o(p)
	}
	return p
}

// validateQuery rejects empty (ErrEmptyQuery) or out-of-range endpoint sets.
func (p *Processor) validateQuery(sources, dests []roadnet.NodeID) error {
	if len(sources) == 0 || len(dests) == 0 {
		return fmt.Errorf("search: obfuscated query needs at least one source and one destination (got |S|=%d, |T|=%d): %w",
			len(sources), len(dests), ErrEmptyQuery)
	}
	for _, s := range sources {
		if !validNode(p.acc, s) {
			return errInvalidSource(s)
		}
	}
	for _, t := range dests {
		if !validNode(p.acc, t) {
			return errInvalidDest(t)
		}
	}
	return nil
}

// appendRow evaluates source against every destination under one gate slot
// and appends the row's cells to t.
func (p *Processor) appendRow(source roadnet.NodeID, dests []roadnet.NodeID, t *Table) (Stats, error) {
	p.gate.Acquire()
	defer p.gate.Release()
	if p.strategy == StrategySSMD || p.strategy == "" {
		if p.cache != nil {
			// Cached trees carry their own long-lived workspaces; no per-row
			// checkout is needed.
			return p.cache.AppendPaths(p.acc, source, dests, t)
		}
		w := p.wsPool.get(p.acc.NumNodes())
		defer p.wsPool.put(w)
		return w.AppendSSMD(p.acc, source, dests, t)
	}
	if p.strategy != StrategyPairwise {
		return Stats{}, fmt.Errorf("search: unknown strategy %q", p.strategy)
	}
	// The pairwise baseline: one independent Dijkstra per destination on one
	// workspace, each materialising its own path.
	w := p.wsPool.get(p.acc.NumNodes())
	defer p.wsPool.put(w)
	var stats Stats
	for _, d := range dests {
		path, st, err := w.Dijkstra(p.acc, source, d)
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
// the per-source searches into one node arena. Every storage.Accessor is an
// immutable view (a live server builds a processor per weight snapshot), so
// concurrent weight updates never produce a mixed-generation table.
func (p *Processor) Evaluate(sources, dests []roadnet.NodeID) (Table, error) {
	if err := p.validateQuery(sources, dests); err != nil {
		return Table{}, err
	}
	res := NewTable(sources, dests)
	for _, s := range sources {
		stats, err := p.appendRow(s, dests, &res)
		if err != nil {
			return Table{}, err
		}
		res.Stats = res.Stats.Add(stats)
	}
	return res, nil
}
