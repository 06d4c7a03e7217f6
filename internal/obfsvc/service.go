// Package obfsvc implements the OPAQUE obfuscator service — the trusted
// middlebox of Figure 5 that sits between clients and the directions search
// server. It accepts client requests over a secure channel, batches them,
// runs the path query obfuscator, forwards the obfuscated path queries to the
// server, filters the returned candidate result paths, answers each client
// with its own path only, and then discards the satisfied request
// (Section IV).
package obfsvc

import (
	"fmt"
	"slices"
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
// sends the query over the multiplexed transport (MuxExecutor). A reply's
// Paths must be the source-major |S|×|T| table of the query, as every server
// and router builds it; the service copies out the members' own paths and
// retains nothing else of the reply.
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

// Config parameterises the obfuscator service.
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
	// VerifyPaths validates returned candidate paths against the
	// obfuscator's road map before answering clients.
	VerifyPaths bool
}

// DefaultConfig returns a shared-mode service with a 50 ms batching window.
func DefaultConfig() Config {
	return Config{
		Obfuscation: obfuscate.DefaultConfig(),
		BatchWindow: 50 * time.Millisecond,
		MaxBatch:    64,
		VerifyPaths: true,
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
	obf      *obfuscate.Obfuscator
	filt     *filter.Filter
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
	var filt *filter.Filter
	if cfg.VerifyPaths {
		filt = filter.NewVerifying(g)
	} else {
		filt = filter.New()
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 64
	}
	return &Service{graph: g, obf: obf, filt: filt, executor: executor, cfg: cfg, metrics: metrics.NewRegistry()}, nil
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
// batching-window flow.
//
// Requests carrying different weight profiles are obfuscated in separate
// groups: one obfuscated query is answered under exactly one metric, so a
// shared query mixing profiles would hand some of its members another
// regime's distances. The grouping costs nothing in anonymity — the
// k-anonymous padding pairs of each query are drawn per group exactly as they
// would be per batch — but it does mean the shared-mode amortisation only
// happens among same-profile requests. A group that fails to obfuscate fails
// only its own requests; the other groups still complete.
func (s *Service) ProcessBatch(batch []obfuscate.Request) ([]ClientResult, error) {
	if len(batch) == 0 {
		return nil, fmt.Errorf("obfsvc: empty batch")
	}
	results := make([]ClientResult, len(batch))
	for i := range results {
		results[i] = ClientResult{Request: batch[i]}
	}

	// Group batch positions by profile, preserving first-seen order so
	// single-profile batches (the common case) behave byte-for-byte like the
	// ungrouped path.
	order := make([]string, 0, 1)
	groups := make(map[string][]int, 1)
	for i, req := range batch {
		if _, ok := groups[req.Profile]; !ok {
			order = append(order, req.Profile)
		}
		groups[req.Profile] = append(groups[req.Profile], i)
	}

	var obfDur, filterDur time.Duration
	var sent, candidates int64
	for _, profile := range order {
		idxs := groups[profile]
		sub := make([]obfuscate.Request, len(idxs))
		for j, i := range idxs {
			sub[j] = batch[i]
		}
		g := s.processGroup(profile, sub)
		for j, i := range idxs {
			results[i] = g.results[j]
		}
		obfDur += g.obfDur
		filterDur += g.filterDur
		sent += g.sent
		candidates += g.candidates
	}

	s.statsMu.Lock()
	s.stats.Requests += int64(len(batch))
	s.stats.Batches++
	s.stats.ObfuscatedSent += sent
	s.stats.CandidatesRecv += candidates
	s.stats.ObfuscationNanos += obfDur.Nanoseconds()
	s.stats.FilterNanos += filterDur.Nanoseconds()
	s.statsMu.Unlock()

	s.metrics.Add("requests", int64(len(batch)))
	s.metrics.Add("batches", 1)
	s.metrics.Add("obfuscated_queries_sent", sent)
	s.metrics.Add("candidate_paths_received", candidates)
	s.metrics.Observe("obfuscation_latency", obfDur)
	s.metrics.Observe("filter_latency", filterDur)
	s.metrics.SetGauge("last_batch_size", float64(len(batch)))

	// "the satisfied requests are immediately discarded in the obfuscator"
	// — nothing about the batch is retained beyond the counters above.
	return results, nil
}

// groupOutcome is what processGroup hands back for one same-profile group.
type groupOutcome struct {
	results          []ClientResult
	obfDur           time.Duration
	filterDur        time.Duration
	sent, candidates int64
}

// processGroup runs the obfuscate → evaluate → filter pipeline for one
// same-profile group of requests, stamping the profile onto every outgoing
// ServerQuery.
func (s *Service) processGroup(profile string, batch []obfuscate.Request) groupOutcome {
	out := groupOutcome{results: make([]ClientResult, len(batch))}
	for i := range out.results {
		out.results[i] = ClientResult{Request: batch[i]}
	}

	start := time.Now()
	s.obfMu.Lock()
	plan, err := s.obf.Obfuscate(batch)
	s.obfMu.Unlock()
	out.obfDur = time.Since(start)
	if err != nil {
		err = fmt.Errorf("obfsvc: obfuscation failed: %w", err)
		for i := range out.results {
			out.results[i].Err = err
		}
		return out
	}
	out.sent = int64(len(plan.Queries))

	// Evaluate the whole obfuscation plan. Batch-capable executors receive
	// every query at once — one round trip in the networked deployment, and
	// the chance to share SSMD trees across queries in the server's batch
	// engine, whose workers run each per-source search on a pooled
	// epoch-stamped workspace; plain executors are driven query by query.
	queries := make([]protocol.ServerQuery, len(plan.Queries))
	for qi, q := range plan.Queries {
		queries[qi] = protocol.ServerQuery{
			QueryID: s.queryID.Add(1),
			Sources: q.Sources,
			Dests:   q.Dests,
			Profile: profile,
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

	for qi, q := range plan.Queries {
		// failMembers marks every member of this query as failed; the other
		// queries of the plan keep processing.
		failMembers := func(err error) {
			for i := range batch {
				if id, ok := plan.Assignment[i]; ok && id == q.ID {
					out.results[i].Err = err
				}
			}
		}
		if errs[qi] != nil {
			failMembers(errs[qi])
			continue
		}
		out.candidates += int64(len(replies[qi].Paths))
		fstart := time.Now()
		extracted, ferr := s.filt.Extract(q, candidateSet{sources: q.Sources, dests: q.Dests, paths: replies[qi].Paths})
		out.filterDur += time.Since(fstart)
		if ferr != nil {
			failMembers(ferr)
			continue
		}
		// Map member results back to batch positions by user and pair.
		for _, ext := range extracted {
			for i := range batch {
				if id, ok := plan.Assignment[i]; !ok || id != q.ID {
					continue
				}
				if batch[i].User == ext.Request.User && batch[i].Source == ext.Request.Source && batch[i].Dest == ext.Request.Dest {
					out.results[i].Path = ext.Path
					out.results[i].Found = ext.Found
				}
			}
		}
	}
	return out
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

// candidateSet adapts a ServerReply to the filter.CandidateSet interface
// without indexing it: a reply is the source-major |S|×|T| table of the
// query that asked for it, so a member's cell is found by position — where
// its source sits in the query's source list, where its destination sits in
// the destination list — and verified against the endpoints the cell itself
// claims. Only the cells the filter extracts are ever touched; the
// |S|·|T| − |members| candidates every obfuscated query is padded with are
// discarded without being looked at.
type candidateSet struct {
	sources, dests []roadnet.NodeID
	paths          []protocol.CandidatePath
}

// Path implements filter.CandidateSet. The returned path owns its memory: it
// is an exactly-sized copy, never a window of the reply's node arena, so the
// reply can be dropped (or overwritten) the moment the filter is done.
func (c candidateSet) Path(source, dest roadnet.NodeID) (search.Path, bool) {
	i, j := slices.Index(c.sources, source), slices.Index(c.dests, dest)
	if i < 0 || j < 0 || len(c.paths) != len(c.sources)*len(c.dests) {
		return search.Path{}, false
	}
	cell := c.paths[i*len(c.dests)+j]
	if cell.Source != source || cell.Dest != dest {
		return search.Path{}, false // not the table we asked for
	}
	return protocol.PathFromCandidate(cell), true
}
