package server

import (
	"runtime"
	"sync"
	"time"

	"opaque/internal/protocol"
)

// This file is the server's batched evaluation engine. A batch is the set of
// obfuscated queries one obfuscator flush produces (all Q(S, T) of a batching
// window); evaluating them together lets the server (1) keep every core busy
// with a bounded worker pool, (2) share settled SSMD spanning trees across
// queries whose source sets overlap via the tree cache, and (3) amortise one
// network round trip over the whole batch in the networked deployment
// (protocol.BatchQuery). Batch parallelism (Config.BatchWorkers) runs under
// the server-wide Config.MaxConcurrentSearches gate, so total search
// concurrency stays bounded no matter how many batches arrive at once.
//
// Each in-flight per-source search runs on an epoch-stamped workspace the
// processor draws from the server's shared search.WorkspacePool for one
// evaluation row, so a batch of any size reuses at most
// (concurrent searches) workspaces and the steady-state engine allocates no
// distance or parent arrays at all.

// BatchResult pairs the reply for one query of a batch with its error.
// Queries fail individually: one malformed query does not poison the batch.
type BatchResult struct {
	Reply protocol.ServerReply
	Err   error
}

// EvaluateBatch evaluates every query of the batch on the engine's worker
// pool and returns one result per query, in input order. It is safe to call
// from any number of goroutines; all calls share the same worker bound
// implicitly through the search gate and the accessor.
func (s *Server) EvaluateBatch(queries []protocol.ServerQuery) []BatchResult {
	results := make([]BatchResult, len(queries))
	s.EvaluateBatchStream(queries, func(i int, r BatchResult) {
		results[i] = r
	})
	return results
}

// EvaluateBatchStream evaluates every query of the batch on the engine's
// worker pool, delivering each result through emit as the query completes —
// the streaming face the multiplexed transport's per-query reply frames are
// built on, so the first finished query of a batch reaches the obfuscator
// while later ones are still searching. emit receives the query's index in
// the batch and may be called concurrently from several workers (with
// distinct indices); it must be safe for that. EvaluateBatchStream returns
// when every query has been emitted.
func (s *Server) EvaluateBatchStream(queries []protocol.ServerQuery, emit func(int, BatchResult)) {
	if len(queries) == 0 {
		return
	}
	start := time.Now()

	workers := s.cfg.BatchWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(queries) {
		workers = len(queries)
	}

	if workers <= 1 {
		for i, q := range queries {
			reply, err := s.Evaluate(q)
			emit(i, BatchResult{Reply: reply, Err: err})
		}
	} else {
		jobs := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range jobs {
					reply, err := s.Evaluate(queries[i])
					emit(i, BatchResult{Reply: reply, Err: err})
				}
			}()
		}
		for i := range queries {
			jobs <- i
		}
		close(jobs)
		wg.Wait()
	}

	s.mBatches.Add(1)
	s.mBatchQueries.Add(int64(len(queries)))
	s.hBatchLatency.Observe(time.Since(start))
	s.metrics.SetGauge("last_batch_size", float64(len(queries)))
	s.publishDerivedMetrics()
}
