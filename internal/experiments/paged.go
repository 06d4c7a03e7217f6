package experiments

import (
	"opaque/internal/protocol"
	"opaque/internal/roadnet"
	"opaque/internal/search"
	"opaque/internal/storage"
)

// pagedEvaluator is the disk-resident directions search server of the
// paper's Section V experiments: the road map laid out in pages behind an LRU
// buffer pool (storage.PagedGraph), answering every obfuscated query with one
// SSMD processor over it — the I/O side of Lemma 1. It implements only
// obfsvc.QueryExecutor, so an obfuscator service over it executes queries one
// at a time, in order, and every fault count is deterministic. It is not safe
// for concurrent use.
type pagedEvaluator struct {
	paged   *storage.PagedGraph
	proc    *search.Processor
	settled int
}

// newPagedEvaluator lays g out with the given node-to-page assignment behind
// a cold pool of bufferPages pages.
func newPagedEvaluator(g *roadnet.Graph, layout storage.Partitioning, bufferPages int) (*pagedEvaluator, error) {
	cfg := storage.DefaultConfig()
	cfg.Partitioning = layout
	store, err := storage.Build(g, cfg)
	if err != nil {
		return nil, err
	}
	pool, err := storage.NewBufferPool(bufferPages)
	if err != nil {
		return nil, err
	}
	paged := storage.NewPagedGraph(store, pool)
	return &pagedEvaluator{paged: paged, proc: newSSMDProcessor(paged)}, nil
}

// Execute implements obfsvc.QueryExecutor: the reply carries every candidate
// path, the nodes the query settled and the page faults it caused.
func (e *pagedEvaluator) Execute(q protocol.ServerQuery) (protocol.ServerReply, error) {
	before := e.paged.Pool().Stats().Faults
	res, err := e.proc.Evaluate(q.Sources, q.Dests)
	if err != nil {
		return protocol.ServerReply{}, err
	}
	e.settled += res.Stats.SettledNodes
	return protocol.ServerReply{
		QueryID:      q.QueryID,
		Paths:        protocol.CandidatesOf(&res, false),
		SettledNodes: res.Stats.SettledNodes,
		PageFaults:   e.paged.Pool().Stats().Faults - before,
	}, nil
}

// Totals returns the nodes settled and the page faults caused since the last
// Reset.
func (e *pagedEvaluator) Totals() (settled int, faults int64) {
	return e.settled, e.paged.Pool().Stats().Faults
}

// Reset starts a cold run: it flushes the buffer pool and zeroes the totals,
// so the next query pays for every page it touches.
func (e *pagedEvaluator) Reset() {
	e.paged.Pool().Flush()
	e.settled = 0
}
