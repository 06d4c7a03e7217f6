// Package obfsvc implements the OPAQUE obfuscator service — the trusted
// middlebox of Figure 5 that sits between clients and the directions search
// server. It accepts client requests over a secure channel, batches them,
// runs the path query obfuscator, forwards the obfuscated path queries to the
// server, filters the returned candidate result paths, answers each client
// with its own path only, and then discards the satisfied request
// (Section IV).
package obfsvc

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"opaque/internal/filter"
	"opaque/internal/metrics"
	"opaque/internal/obfuscate"
	"opaque/internal/protocol"
	"opaque/internal/roadnet"
	"opaque/internal/search"
)

// QueryExecutor abstracts the connection to the directions search server: the
// in-process deployment calls the server directly, the networked deployment
// sends the query over the multiplexed transport (MuxExecutor), whose
// replies hold the table in its wire form. Either way a reply's table must be
// the source-major |S|×|T| table of the query, as every server and router
// builds it; the service reads out its requests' own cells (filter.Extract)
// and retains nothing else of the reply. A reply that is not that table
// fails its query's requests with filter.ErrBadReply.
type QueryExecutor interface {
	Execute(q protocol.ServerQuery) (protocol.ServerReply, error)
}

// BatchExecutor is an optional extension of QueryExecutor for servers that
// can evaluate a whole batch of obfuscated queries in one exchange (the
// in-process server's batch engine, or a networked server via
// protocol.BatchQuery). ExecuteBatch returns one reply and one error slot per
// query, in query order; queries fail individually. When the executor
// implements it, ProcessBatch hands over every query of an obfuscation plan
// at once so the server can share SSMD trees across them.
type BatchExecutor interface {
	QueryExecutor
	ExecuteBatch(qs []protocol.ServerQuery) ([]protocol.ServerReply, []error)
}

// ExecutorFunc adapts a function to the QueryExecutor interface.
type ExecutorFunc func(q protocol.ServerQuery) (protocol.ServerReply, error)

// Execute implements QueryExecutor.
func (f ExecutorFunc) Execute(q protocol.ServerQuery) (protocol.ServerReply, error) { return f(q) }

// ErrShed fails the members of a query the server shed to a distance-only
// reply (protocol.ServerReply.Degraded): it carries costs but no path, and
// an answer without its path is not the directions the client asked for.
var ErrShed = errors.New("obfsvc: the server shed the query to a distance-only reply, which carries no path")

// Config parameterises the obfuscator service. Every path the service hands
// a client has passed filter.Extract's check against the obfuscator's map,
// whatever the configuration.
type Config struct {
	// Obfuscation is the path query obfuscator configuration.
	Obfuscation obfuscate.Config
	// BatchWindow is how long the service waits to accumulate concurrent
	// requests before obfuscating them together (shared mode benefits from
	// larger windows). Zero means every Submit call is processed
	// immediately as a batch of one.
	BatchWindow time.Duration
	// MaxBatch caps the number of requests obfuscated together.
	MaxBatch int
}

// DefaultConfig returns a shared-mode service with a 50 ms batching window.
func DefaultConfig() Config {
	return Config{
		Obfuscation: obfuscate.DefaultConfig(),
		BatchWindow: 50 * time.Millisecond,
		MaxBatch:    64,
	}
}

// Stats counts the service's work.
type Stats struct {
	Requests         int64
	Batches          int64
	ObfuscatedSent   int64
	CandidatesRecv   int64
	ObfuscationNanos int64
	FilterNanos      int64
}

// Service is the obfuscator middlebox.
type Service struct {
	graph    *roadnet.Graph
	topology uint64 // graph's topology checksum, named by every query sent
	obf      *obfuscate.Obfuscator
	executor QueryExecutor
	cfg      Config

	queryID atomic.Uint64
	stats   Stats
	statsMu sync.Mutex
	metrics *metrics.Registry

	// obfMu serialises access to the obfuscator, whose seeded endpoint
	// selection is deliberately deterministic and therefore not safe for
	// concurrent use. Only the (cheap) obfuscation stage is serialised;
	// query evaluation and filtering run concurrently across batches.
	obfMu sync.Mutex

	// batching state used by the asynchronous Submit path.
	mu      sync.Mutex
	pending []pendingRequest
	timer   *time.Timer
}

type pendingRequest struct {
	req  obfuscate.Request
	done chan ClientResult
}

// ClientResult is what a client receives back: its own requested path.
type ClientResult struct {
	Request obfuscate.Request
	Path    search.Path
	Found   bool
	Err     error
}

// New builds the obfuscator service over the simple road map g.
func New(g *roadnet.Graph, executor QueryExecutor, cfg Config) (*Service, error) {
	if executor == nil {
		return nil, fmt.Errorf("obfsvc: nil query executor")
	}
	obf, err := obfuscate.New(g, cfg.Obfuscation)
	if err != nil {
		return nil, err
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 64
	}
	return &Service{graph: g, topology: g.TopologyChecksum(), obf: obf, executor: executor, cfg: cfg, metrics: metrics.NewRegistry()}, nil
}

// MustNew is New but panics on error.
func MustNew(g *roadnet.Graph, executor QueryExecutor, cfg Config) *Service {
	s, err := New(g, executor, cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Obfuscator exposes the underlying path query obfuscator (used by
// experiments that need the plan without going through the server).
func (s *Service) Obfuscator() *obfuscate.Obfuscator { return s.obf }

// Stats returns a snapshot of the service counters.
func (s *Service) Stats() Stats {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	return s.stats
}

// Metrics returns the service's instrumentation registry (request counters,
// obfuscation and filtering latency histograms).
func (s *Service) Metrics() *metrics.Registry { return s.metrics }

// ProcessBatch obfuscates the batch, evaluates every obfuscated query through
// the executor, filters the candidates and returns one result per request in
// batch order. This synchronous entry point is what experiments and the
// in-process deployment use; Submit builds on it for the asynchronous,
// batching-window flow. A batch that fails to obfuscate fails every request;
// a query that fails to evaluate or filter fails only its own members.
func (s *Service) ProcessBatch(batch []obfuscate.Request) ([]ClientResult, error) {
	if len(batch) == 0 {
		return nil, fmt.Errorf("obfsvc: empty batch")
	}
	results := make([]ClientResult, len(batch))
	for i := range results {
		results[i] = ClientResult{Request: batch[i]}
	}

	start := time.Now()
	s.obfMu.Lock()
	plan, err := s.obf.Obfuscate(batch)
	s.obfMu.Unlock()
	obfDur := time.Since(start)
	if err != nil {
		err = fmt.Errorf("obfsvc: obfuscation failed: %w", err)
		for i := range results {
			results[i].Err = err
		}
		s.record(len(batch), 0, 0, obfDur, 0)
		return results, nil
	}

	// Evaluate the whole obfuscation plan. Batch-capable executors receive
	// every query at once — one round trip in the networked deployment, and
	// the chance to share SSMD trees across queries in the server's batch
	// engine, whose workers run each per-source search on a pooled
	// epoch-stamped workspace; plain executors are driven query by query.
	// Every query names the service's map, so the paths come back as
	// out-arc ordinals on it, and a server holding another map refuses.
	queries := make([]protocol.ServerQuery, len(plan.Queries))
	for qi, q := range plan.Queries {
		queries[qi] = protocol.ServerQuery{
			QueryID:  s.queryID.Add(1),
			Sources:  q.Sources,
			Dests:    q.Dests,
			Topology: s.topology,
		}
	}
	var replies []protocol.ServerReply
	var errs []error
	if be, ok := s.executor.(BatchExecutor); ok {
		replies, errs = be.ExecuteBatch(queries)
	} else {
		replies = make([]protocol.ServerReply, len(queries))
		errs = make([]error, len(queries))
		for qi := range queries {
			replies[qi], errs[qi] = s.executor.Execute(queries[qi])
		}
	}

	// Group the batch by query, in one counting pass: query qi covers the
	// requests at batch positions slot[from[qi]:from[qi+1]], and their paths
	// go to the same range of paths.
	idx := make([]int, len(plan.Queries)+1+len(batch))
	from, slot := idx[:len(plan.Queries)+1], idx[len(plan.Queries)+1:]
	for _, qi := range plan.Assignment {
		from[qi]++
	}
	for qi := range plan.Queries {
		from[qi+1] += from[qi]
	}
	for i := len(batch) - 1; i >= 0; i-- {
		qi := plan.Assignment[i]
		from[qi]--
		slot[from[qi]] = i
	}
	paths := make([]search.Path, len(batch))

	var filterDur time.Duration
	var candidates int64
	for qi, q := range plan.Queries {
		lo, hi := from[qi], from[qi+1]
		err := errs[qi]
		if err == nil {
			candidates += int64(replies[qi].Cells())
			if replies[qi].Degraded {
				err = fmt.Errorf("obfsvc: query %d: %w", queries[qi].QueryID, ErrShed)
			} else {
				fstart := time.Now()
				if ferr := filter.Extract(s.graph, q, replies[qi], batch, slot[lo:hi], paths[lo:hi]); ferr != nil {
					err = fmt.Errorf("obfsvc: query %d: %w", queries[qi].QueryID, ferr)
				}
				filterDur += time.Since(fstart)
			}
		}
		// A query that fails fails only its own requests.
		for k := lo; k < hi; k++ {
			if err != nil {
				results[slot[k]].Err = err
				continue
			}
			results[slot[k]].Path, results[slot[k]].Found = paths[k], !paths[k].Empty()
		}
	}
	s.record(len(batch), int64(len(plan.Queries)), candidates, obfDur, filterDur)

	// "the satisfied requests are immediately discarded in the obfuscator"
	// — nothing about the batch is retained beyond the counters record keeps.
	return results, nil
}

// record adds one processed batch to the service counters and metrics.
func (s *Service) record(requests int, sent, candidates int64, obfDur, filterDur time.Duration) {
	s.statsMu.Lock()
	s.stats.Requests += int64(requests)
	s.stats.Batches++
	s.stats.ObfuscatedSent += sent
	s.stats.CandidatesRecv += candidates
	s.stats.ObfuscationNanos += obfDur.Nanoseconds()
	s.stats.FilterNanos += filterDur.Nanoseconds()
	s.statsMu.Unlock()

	s.metrics.Add("requests", int64(requests))
	s.metrics.Add("batches", 1)
	s.metrics.Add("obfuscated_queries_sent", sent)
	s.metrics.Add("candidate_paths_received", candidates)
	s.metrics.Observe("obfuscation_latency", obfDur)
	s.metrics.Observe("filter_latency", filterDur)
	s.metrics.SetGauge("last_batch_size", float64(requests))
}

// Submit enqueues one request and returns a channel that will receive the
// result once the current batching window closes. Requests arriving within
// BatchWindow of each other are obfuscated together, which is what makes the
// shared obfuscated path query variant effective.
func (s *Service) Submit(req obfuscate.Request) <-chan ClientResult {
	done := make(chan ClientResult, 1)
	if err := req.Validate(s.graph); err != nil {
		done <- ClientResult{Request: req, Err: err}
		return done
	}
	s.mu.Lock()
	s.pending = append(s.pending, pendingRequest{req: req, done: done})
	shouldFlushNow := len(s.pending) >= s.cfg.MaxBatch || s.cfg.BatchWindow <= 0
	if !shouldFlushNow && s.timer == nil {
		s.timer = time.AfterFunc(s.cfg.BatchWindow, s.flush)
	}
	s.mu.Unlock()
	if shouldFlushNow {
		s.flush()
	}
	return done
}

// flush processes all currently pending requests as one batch.
func (s *Service) flush() {
	s.mu.Lock()
	if s.timer != nil {
		s.timer.Stop()
		s.timer = nil
	}
	pending := s.pending
	s.pending = nil
	s.mu.Unlock()
	if len(pending) == 0 {
		return
	}
	batch := make([]obfuscate.Request, len(pending))
	for i, p := range pending {
		batch[i] = p.req
	}
	results, err := s.ProcessBatch(batch)
	for i, p := range pending {
		if err != nil {
			p.done <- ClientResult{Request: p.req, Err: err}
			continue
		}
		p.done <- results[i]
	}
}

// Flush forces any pending requests to be processed immediately; tests and
// shutdown paths use it.
func (s *Service) Flush() { s.flush() }
