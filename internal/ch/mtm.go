package ch

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"opaque/internal/roadnet"
	"opaque/internal/search"
	"opaque/internal/storage"
)

// This file implements the many-to-many bucket algorithm on the CH overlay —
// the evaluation engine for *wide* obfuscated queries. Where the pairwise
// Engine answers Q(S, T) with |S|·|T| point queries, MTM computes
// the whole |S|×|T| distance table in |S| + |T| upward sweeps:
//
//  1. One backward upward search per target t_j deposits a bucket entry
//     (j, d↑(u, t_j)) at every node u it settles. Buckets live in a flat,
//     epoch-stamped arena (per-node chain heads into one entries array), so
//     the deposit phase allocates nothing once the arena has grown to its
//     working size.
//  2. One forward upward search per source s_i scans the bucket of every
//     node u it settles and relaxes table cells:
//     dist[i][j] = min(dist[i][j], d↑(s_i, u) + d↑(u, t_j)).
//
// Each sweep is an elimination-tree walk over the start node's ancestors
// (etree.go), settling exactly the nodes upward-reachable from the start.
//
// Correctness rests on the standard CH theorem the point query already
// relies on: for every pair (s, t) some shortest path is an up-down
// path, its apex is settled by both the forward sweep from s and the
// backward sweep from t with exact prefix/suffix distances, so the minimum
// over meeting nodes equals the true distance. Meeting nodes whose upward
// labels exceed the true distance only ever produce over-estimates, never
// under-estimates, so they cannot corrupt the minimum.
//
// Distance-only callers (candidate filtering, experiments) use DistancesInto
// with a reused output buffer: the steady-state evaluation performs zero
// heap allocations. Path callers use Table, which additionally records, per
// cell, the overlay arc chain source→apex→target; the expensive part — the
// recursive shortcut unpacking into original-arc node sequences — happens
// lazily in Table.Path, so even a path-capable table only materialises the
// cells actually read.

// bucketEntry is one deposit of a backward sweep: "target tgt is reachable
// downward from this node at cost dist". Entries for one node form a chain
// through next (-1 terminates) in the state's flat arena. via is the arena
// arc the backward search relaxed to reach this node (-1 at the target
// itself); it is what lets Table.Path walk the apex→target half of a route
// without retaining |T| search trees.
type bucketEntry struct {
	next   int32
	target int32
	via    int32
	dist   float64
}

// mtmState is the reusable per-evaluation state of one many-to-many table:
// the bucket arena, the sweep labels and the per-row reduction scratch. The
// bucket heads are epoch-stamped — resetting the per-node chain heads for
// the next table is a counter bump, not an O(n) fill — and the state is
// pooled, so steady-state tables allocate nothing.
type mtmState struct {
	epoch   uint32
	stamp   []uint32 // head[v] valid iff stamp[v] == epoch
	head    []int32
	entries []bucketEntry

	// lab holds the labels of the elimination-tree sweeps; path recording
	// reads the forward tree's relaxing CSR slots from lab.via.
	lab treeLabels

	// Per-row scratch for path-recording sweeps: the bucket entry and
	// meeting node realising the current best of each cell. Only read for
	// cells whose distance is finite, so no per-row reset is needed.
	bestEntry []int32
	bestMeet  []roadnet.NodeID
	chain     []int32 // forward arc-chain scratch
}

// mtmStates recycles evaluation states across every MTM engine: a state
// holds nothing of an overlay and reset sizes it for each table, so one
// pool serves every overlay and every re-customized generation. The pool
// must not live inside MTM: the runtime keeps a used sync.Pool reachable
// until two collections have passed, and a pool field would keep its engine
// — and through it the overlay's weight layer — alive with it. On a server
// that re-customizes several times between two collections, that pinned one
// retired weight layer per refresh.
var mtmStates = sync.Pool{New: func() any { return new(mtmState) }}

// reset prepares the state for the next table over an n-node overlay.
func (st *mtmState) reset(n int) {
	if n > len(st.stamp) {
		grow := n - len(st.stamp)
		st.stamp = append(st.stamp, make([]uint32, grow)...)
		st.head = append(st.head, make([]int32, grow)...)
	}
	st.lab.grow(n)
	if st.epoch == ^uint32(0) {
		for i := range st.stamp {
			st.stamp[i] = 0
		}
		st.epoch = 0
	}
	st.epoch++
	st.entries = st.entries[:0]
}

// ensureRow sizes the per-row scratch for t targets.
func (st *mtmState) ensureRow(t int) {
	if t > len(st.bestEntry) {
		grow := t - len(st.bestEntry)
		st.bestEntry = append(st.bestEntry, make([]int32, grow)...)
		st.bestMeet = append(st.bestMeet, make([]roadnet.NodeID, grow)...)
	}
}

// deposit appends a bucket entry for node u and links it as u's chain head.
func (st *mtmState) deposit(u roadnet.NodeID, target, via int32, dist float64) {
	prev := int32(-1)
	if st.stamp[u] == st.epoch {
		prev = st.head[u]
	}
	st.entries = append(st.entries, bucketEntry{next: prev, target: target, via: via, dist: dist})
	st.head[u] = int32(len(st.entries) - 1)
	st.stamp[u] = st.epoch
}

// headOf returns the first entry index of u's bucket chain, -1 when empty.
func (st *mtmState) headOf(u roadnet.NodeID) int32 {
	if st.stamp[u] != st.epoch {
		return -1
	}
	return st.head[u]
}

// findEntry returns the index of target's entry in u's bucket, -1 when the
// backward sweep never settled u — which, for nodes on a recorded route, is
// an internal invariant violation.
func (st *mtmState) findEntry(u roadnet.NodeID, target int32) int32 {
	for e := st.headOf(u); e >= 0; e = st.entries[e].next {
		if st.entries[e].target == target {
			return e
		}
	}
	return -1
}

// scan joins the bucket of node u, settled at distance du by a forward
// sweep, into the row: every entry that improves its cell lowers it and, in
// path mode, becomes the cell's best. It returns the entries examined.
func (st *mtmState) scan(u roadnet.NodeID, du float64, row []float64, needPaths bool) int64 {
	scanned := int64(0)
	for e := st.headOf(u); e >= 0; e = st.entries[e].next {
		scanned++
		en := &st.entries[e]
		if nd := du + en.dist; nd < row[en.target] {
			row[en.target] = nd
			if needPaths {
				st.bestEntry[en.target] = e
				st.bestMeet[en.target] = u
			}
		}
	}
	return scanned
}

// MTMStats is a snapshot of an MTM engine's lifetime instrumentation; the
// server mirrors it into its metrics registry and -stats-interval log.
type MTMStats struct {
	// Tables counts completed many-to-many evaluations.
	Tables int64
	// BucketEntries counts entries deposited by backward sweeps.
	BucketEntries int64
	// BucketEntriesScanned counts entries examined by forward sweeps — the
	// join cost the bucket layout is meant to keep proportional to the
	// upward search spaces, not to |S|·|T|.
	BucketEntriesScanned int64
	// ArenaHighWater is the largest bucket arena (entries in one table)
	// observed, i.e. the steady-state memory the pooled state retains.
	ArenaHighWater int64
}

// MTM is the many-to-many table engine on an Overlay. It is safe for
// concurrent use: every evaluation checks a private mtmState out of the
// package's state pool, and the overlay itself is read-only.
//
// MTM implements search.TableEngine, which is how the server installs it for
// the wide half of "hybrid" routing.
type MTM struct {
	o *Overlay
	// verified memoises the accessor graph proven to match the overlay,
	// exactly like Engine.verified.
	verified atomic.Pointer[roadnet.Graph]
	// gen is the accessor data generation the overlay's weights are valid
	// for, exactly like Engine.gen (search.Generational).
	gen atomic.Uint64

	tables    atomic.Int64
	deposited atomic.Int64
	scanned   atomic.Int64
	highWater atomic.Int64
}

// NewMTM returns a many-to-many engine over o. The second parameter is
// unused: sweeps walk the elimination tree and draw no search workspace. It
// goes at the next change to the benchmark harness, which still passes it.
func NewMTM(o *Overlay, _ *search.WorkspacePool) *MTM {
	return &MTM{o: o}
}

// Overlay returns the overlay the engine evaluates on.
func (m *MTM) Overlay() *Overlay { return m.o }

// BindGeneration records the accessor data generation the overlay's weights
// were customized for (see Engine.BindGeneration).
func (m *MTM) BindGeneration(gen uint64) { m.gen.Store(gen) }

// Generation implements search.Generational.
func (m *MTM) Generation() uint64 { return m.gen.Load() }

// Stats returns a snapshot of the engine's lifetime counters.
func (m *MTM) Stats() MTMStats {
	return MTMStats{
		Tables:               m.tables.Load(),
		BucketEntries:        m.deposited.Load(),
		BucketEntriesScanned: m.scanned.Load(),
		ArenaHighWater:       m.highWater.Load(),
	}
}

// DistancesInto computes the |S|×|T| distance table into dst (grown as
// needed and returned; row-major: dst[i*|T|+j] is sources[i]→targets[j],
// +Inf when unreachable). Passing a previously returned dst makes the
// steady-state evaluation allocation-free — this is the hot path wide
// obfuscated queries are routed through when candidate paths are not
// needed.
//
//opaque:noalloc
func (m *MTM) DistancesInto(dst []float64, sources, targets []roadnet.NodeID) ([]float64, search.Stats, error) {
	cells := len(sources) * len(targets)
	if cap(dst) < cells {
		dst = make([]float64, cells) //opaque:allow(noalloc) cold grow path: steady state reuses the previously returned dst
	}
	dst = dst[:cells]
	stats, _, err := m.evaluate(dst, sources, targets, false)
	return dst, stats, err
}

// Distances is DistancesInto with a freshly allocated output table.
func (m *MTM) Distances(sources, targets []roadnet.NodeID) ([]float64, search.Stats, error) {
	return m.DistancesInto(nil, sources, targets)
}

// Table computes the full |S|×|T| table with per-cell path support: the
// distances are computed exactly as DistancesInto does, and each reachable
// cell additionally records its overlay arc chain so Table.Path can unpack
// the route lazily. The returned table is self-contained — it shares no
// state with the engine and stays valid indefinitely.
func (m *MTM) Table(sources, targets []roadnet.NodeID) (*Table, error) {
	tbl := &Table{
		o:       m.o,
		sources: append([]roadnet.NodeID(nil), sources...),
		targets: append([]roadnet.NodeID(nil), targets...),
		dist:    make([]float64, len(sources)*len(targets)),
	}
	stats, arcs, err := m.evaluate(tbl.dist, sources, targets, true)
	if err != nil {
		return nil, err
	}
	tbl.stats = stats
	tbl.arcs = arcs.arcs
	tbl.cellOff = arcs.cellOff
	return tbl, nil
}

// cellChains is the per-cell overlay arc recording a path-capable evaluation
// produces: cell c's chain is arcs[cellOff[c]:cellOff[c+1]], in travel order
// source→apex→target.
type cellChains struct {
	arcs    []int32
	cellOff []int32
}

// evaluate is the shared core: the backward deposit phase followed by the
// forward scan phase. dist must have len(sources)*len(targets) cells; it is
// +Inf-initialised here. When needPaths is set, each finite cell's overlay
// arc chain is recorded and returned.
func (m *MTM) evaluate(dist []float64, sources, targets []roadnet.NodeID, needPaths bool) (search.Stats, cellChains, error) {
	o := m.o
	var stats search.Stats
	var chains cellChains
	if len(sources) == 0 || len(targets) == 0 {
		return stats, chains, fmt.Errorf("ch: many-to-many table needs at least one source and one target (got |S|=%d, |T|=%d): %w",
			len(sources), len(targets), search.ErrEmptyQuery)
	}
	for _, s := range sources {
		if !validNode(o, s) {
			return stats, chains, fmt.Errorf("ch: invalid source node %d", s)
		}
	}
	for _, t := range targets {
		if !validNode(o, t) {
			return stats, chains, fmt.Errorf("ch: invalid target node %d", t)
		}
	}

	st := mtmStates.Get().(*mtmState)
	defer mtmStates.Put(st)
	st.reset(o.n)

	// Phase 1: one backward upward sweep per target deposits buckets.
	for j, t := range targets {
		m.backwardWalk(st, t, int32(j), &stats)
	}
	m.deposited.Add(int64(len(st.entries)))
	for {
		cur := m.highWater.Load()
		if int64(len(st.entries)) <= cur || m.highWater.CompareAndSwap(cur, int64(len(st.entries))) {
			break
		}
	}

	if needPaths {
		st.ensureRow(len(targets))
		chains.cellOff = make([]int32, 1, len(dist)+1)
	}

	// Phase 2: one forward upward sweep per source scans buckets and, when
	// paths were requested, records each finite cell's arc chain while the
	// sweep's relaxing CSR slots are still in st.lab.via.
	scanned := int64(0)
	for i, s := range sources {
		row := dist[i*len(targets) : (i+1)*len(targets)]
		for j := range row {
			row[j] = math.Inf(1)
		}
		scanned += m.forwardWalk(st, s, row, needPaths, &stats)
		if needPaths {
			var err error
			chains.arcs, chains.cellOff, err = m.recordChains(st, s, row, chains.arcs, chains.cellOff)
			if err != nil {
				return stats, chains, err
			}
		}
	}
	m.scanned.Add(scanned)
	m.tables.Add(1)
	return stats, chains, nil
}

// backwardWalk is the backward sweep from target t: an elimination-tree walk
// over the backward CSR view, then a second pass over t's ancestor chain
// that deposits a bucket entry at every settled node and returns its label
// to rest.
//
//opaque:noalloc
func (m *MTM) backwardWalk(st *mtmState, t roadnet.NodeID, j int32, stats *search.Stats) {
	o := m.o
	o.walkUp(&st.lab, t, o.bwdOff, o.bwdTo, o.bwdCost, stats)
	dist := st.lab.dist
	for u := int32(t); u >= 0; u = o.etree[u] {
		if d := dist[u]; !math.IsInf(d, 1) {
			via := st.lab.via[u]
			if via >= 0 {
				via = o.bwdArc[via]
			}
			st.deposit(roadnet.NodeID(u), j, via, d)
			dist[u] = math.Inf(1)
		}
	}
}

// forwardWalk is the forward sweep from source s: an elimination-tree walk
// over the forward CSR view, then a second pass over s's ancestor chain that
// scans the bucket of every settled node into the row and returns its label
// to rest. It returns the number of bucket
// entries examined; the relaxing CSR slots stay in st.lab.via for
// recordChains.
//
//opaque:noalloc
func (m *MTM) forwardWalk(st *mtmState, s roadnet.NodeID, row []float64, needPaths bool, stats *search.Stats) int64 {
	o := m.o
	o.walkUp(&st.lab, s, o.fwdOff, o.fwdTo, o.fwdCost, stats)
	dist := st.lab.dist
	scanned := int64(0)
	for u := int32(s); u >= 0; u = o.etree[u] {
		if d := dist[u]; !math.IsInf(d, 1) {
			scanned += st.scan(roadnet.NodeID(u), d, row, needPaths)
			dist[u] = math.Inf(1)
		}
	}
	return scanned
}

// recordChains appends, for every finite cell of s's row, the overlay arc
// chain source→apex (the forward sweep's relaxing arcs, walked back from
// the meeting node) followed by apex→target (walked through the bucket
// entries' via arcs), and closes the row's cell offsets.
func (m *MTM) recordChains(st *mtmState, s roadnet.NodeID, row []float64, arcs []int32, cellOff []int32) ([]int32, []int32, error) {
	o := m.o
	for j := range row {
		if !math.IsInf(row[j], 1) {
			// Forward half: meet→source through the relaxing arcs, emitted
			// in source→meet travel order.
			st.chain = st.chain[:0]
			for at := st.bestMeet[j]; at != s; {
				a := st.lab.via[at]
				if a < 0 {
					return nil, nil, fmt.Errorf("ch: internal error: forward sweep tree does not reach source %d", s)
				}
				a = o.fwdArc[a]
				st.chain = append(st.chain, a)
				at = roadnet.NodeID(o.arcs[a].from)
			}
			for k := len(st.chain) - 1; k >= 0; k-- {
				arcs = append(arcs, st.chain[k])
			}
			// Backward half: follow the via arcs from the meeting node's
			// bucket entry down to the target.
			for e := st.bestEntry[j]; ; {
				en := st.entries[e]
				if en.via < 0 {
					break
				}
				arcs = append(arcs, en.via)
				next := roadnet.NodeID(o.arcs[en.via].to)
				if e = st.findEntry(next, en.target); e < 0 {
					return nil, nil, fmt.Errorf("ch: internal error: backward sweep chain broken at node %d", next)
				}
			}
		}
		cellOff = append(cellOff, int32(len(arcs)))
	}
	return arcs, cellOff, nil
}

// Table is a completed many-to-many result: the distance matrix plus the
// per-cell overlay arc chains path reconstruction needs. Distances are
// available immediately; Path unpacks a cell's shortcut chain into the
// original-arc route on demand, so callers that read only a few cells (or
// none) never pay for the rest.
type Table struct {
	o                *Overlay
	sources, targets []roadnet.NodeID
	dist             []float64
	arcs             []int32
	cellOff          []int32
	stats            search.Stats
}

// Stats returns the search work the evaluation performed.
func (t *Table) Stats() search.Stats { return t.stats }

// Dist returns the shortest-path distance sources[i]→targets[j], +Inf when
// unreachable.
func (t *Table) Dist(i, j int) float64 { return t.dist[i*len(t.targets)+j] }

// AppendPath unpacks cell (i, j)'s route and appends it to dst; nothing is
// appended when the target is unreachable. Each call unpacks afresh from the
// recorded arc chain, so a caller laying many cells into one arena pays no
// per-cell allocation.
func (t *Table) AppendPath(dst []roadnet.NodeID, i, j int) []roadnet.NodeID {
	cell := i*len(t.targets) + j
	if math.IsInf(t.dist[cell], 1) {
		return dst
	}
	dst = append(dst, t.sources[i])
	for _, a := range t.arcs[t.cellOff[cell]:t.cellOff[cell+1]] {
		dst = t.o.appendArc(dst, a)
	}
	return dst
}

// Path unpacks and returns the shortest path for cell (i, j) as a Path of
// its own, or an empty path when the target is unreachable.
func (t *Table) Path(i, j int) search.Path {
	cell := i*len(t.targets) + j
	if math.IsInf(t.dist[cell], 1) {
		return search.Path{}
	}
	// Every chain arc unpacks to at least one node; shortcuts grow the slice.
	nodes := make([]roadnet.NodeID, 0, 2+2*(t.cellOff[cell+1]-t.cellOff[cell]))
	return search.Path{Nodes: t.AppendPath(nodes, i, j), Cost: t.dist[cell]}
}

// verifyAccessor mirrors Engine.AppendShortestPath's binding rules: filtered
// accessors are rejected outright and any other accessor's graph must
// checksum-match the overlay (memoised per graph).
func (m *MTM) verifyAccessor(acc storage.Accessor) error {
	if acc == nil {
		return nil
	}
	if _, filtered := acc.(*storage.FilteredGraph); filtered {
		return fmt.Errorf("ch: overlay cannot serve a filtered accessor — the hierarchy was contracted over the unfiltered arcs; query the filtered graph with the flat searches instead")
	}
	g := acc.Graph()
	if m.verified.Load() != g {
		if err := m.o.Matches(g); err != nil {
			return fmt.Errorf("ch: accessor does not present the overlay's graph (%v): %w", err, search.ErrStaleEngine)
		}
		m.verified.Store(g)
	}
	return nil
}

// EvaluateTable implements search.TableEngine: the full Q(S, T) result, every
// cell's route unpacked straight into the result's one node arena (the wire
// reply needs every cell).
func (m *MTM) EvaluateTable(acc storage.Accessor, sources, dests []roadnet.NodeID) (search.Table, error) {
	if err := m.verifyAccessor(acc); err != nil {
		return search.Table{}, err
	}
	tbl, err := m.Table(sources, dests)
	if err != nil {
		return search.Table{}, err
	}
	res := search.Table{
		Sources: tbl.sources,
		Dests:   tbl.targets,
		Dist:    tbl.dist,
		Ends:    make([]int32, 0, len(tbl.dist)),
		Stats:   tbl.stats,
	}
	for i := range sources {
		for j := range dests {
			res.Nodes = tbl.AppendPath(res.Nodes, i, j)
			res.Ends = append(res.Ends, int32(len(res.Nodes)))
		}
	}
	return res, nil
}

// EvaluateDistances implements search.TableEngine's distance-only fast path:
// Dist is filled, there are no paths, and no route is ever unpacked.
func (m *MTM) EvaluateDistances(acc storage.Accessor, sources, dests []roadnet.NodeID) (search.Table, error) {
	if err := m.verifyAccessor(acc); err != nil {
		return search.Table{}, err
	}
	flat, stats, err := m.Distances(sources, dests)
	if err != nil {
		return search.Table{}, err
	}
	return search.Table{
		Sources: append([]roadnet.NodeID(nil), sources...),
		Dests:   append([]roadnet.NodeID(nil), dests...),
		Dist:    flat,
		Stats:   stats,
	}, nil
}
