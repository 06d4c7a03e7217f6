package ch

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"opaque/internal/roadnet"
	"opaque/internal/search"
	"opaque/internal/storage"
)

// This file implements the many-to-many bucket algorithm on the CH overlay —
// the evaluation engine for every obfuscated query on an overlay. Where
// point queries would answer Q(S, T) with |S|·|T| pairs of upward searches,
// MTM computes the whole |S|×|T| distance table in |S| + |T| upward sweeps:
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
// Correctness rests on the standard CH theorem: for every pair (s, t) some
// shortest path is an up-down path, its apex is settled by both the forward
// sweep from s and the backward sweep from t with exact prefix/suffix
// distances, so the minimum over meeting nodes equals the true distance.
// Meeting nodes whose upward labels exceed the true distance only ever
// produce over-estimates, never under-estimates, so they cannot corrupt the
// minimum.
//
// Distance-only callers (candidate filtering, experiments) use DistancesInto
// with a reused output buffer: the steady-state evaluation performs zero
// heap allocations. Path callers additionally record, per cell, the overlay
// arc chain source→apex→target, and unpack it — the recursive shortcut
// expansion into original-arc node sequences — on demand: Table.Path
// unpacks only the cells a caller reads, EvaluateTable every cell straight
// into the reply's node arena. The cells of one table share their sweeps,
// so they share most of their chain arcs too (a random 16×16 table on a
// 10 000-node TIGER-like map records about 2 000 chain arcs, fewer than 400
// of them distinct): EvaluateTable unpacks each distinct arc once and copies
// its window of the arena for every later occurrence, through a memo sized
// by the table's chain length.

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

	// The per-cell overlay arc chains of a path-recording evaluation: cell
	// c's chain is arcs[cellOff[c]:cellOff[c+1]], in travel order
	// source→apex→target. Valid until the state returns to the pool.
	arcs    []int32
	cellOff []int32

	// memo is EvaluateTable's unpacking memo, an open-addressing table from
	// chain arc to the window of the node arena its first occurrence was
	// unpacked into. resetMemo sizes it by the table's chain length, never
	// by the overlay's arc count.
	memo []arcWindow
	// unpacked is the scratch arena EvaluateTable unpacks a table's routes
	// into before copying them, once, into the reply's exactly-sized arena.
	unpacked []roadnet.NodeID
}

// arcWindow is one slot of the unpacking memo: key is the arc plus one (0
// marks an empty slot) and [start, end) the arena window holding the arc's
// unpacked nodes.
type arcWindow struct {
	key, start, end int32
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

// resetMemo empties the unpacking memo and sizes it for a table of n chain
// arcs: a power of two at least 2n, so linear probes stay short.
func (st *mtmState) resetMemo(n int) []arcWindow {
	size := 1
	for size < 2*n {
		size <<= 1
	}
	if cap(st.memo) < size {
		st.memo = make([]arcWindow, size)
	} else {
		st.memo = st.memo[:size]
		clear(st.memo)
	}
	return st.memo
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
// The hybrid server calls EvaluateTable (or EvaluateDistances) for every
// query on an overlay, 1×1 included.
type MTM struct {
	o *Overlay
	// verified memoises the last accessor graph proven (by checksum) to be
	// the one the overlay was built from, so the O(arcs) Matches check runs
	// once per graph instead of once per table.
	verified atomic.Pointer[roadnet.Graph]
	// gen is the accessor data generation the overlay's weights are valid
	// for: the installer binds it with BindGeneration so verifyAccessor
	// refuses a versioned accessor whose generation differs, even when its
	// content checksum still matches.
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
// were customized for. Servers call it when installing or swapping the
// engine; see verifyAccessor.
func (m *MTM) BindGeneration(gen uint64) { m.gen.Store(gen) }

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
	st := mtmStates.Get().(*mtmState)
	defer mtmStates.Put(st)
	stats, err := m.evaluate(st, dst, sources, targets, false)
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
	st := mtmStates.Get().(*mtmState)
	defer mtmStates.Put(st)
	dist := make([]float64, len(sources)*len(targets))
	stats, err := m.evaluate(st, dist, sources, targets, true)
	if err != nil {
		return nil, err
	}
	return &Table{
		o:       m.o,
		sources: slices.Clone(sources),
		targets: slices.Clone(targets),
		dist:    dist,
		arcs:    slices.Clone(st.arcs),
		cellOff: slices.Clone(st.cellOff),
		stats:   stats,
	}, nil
}

// evaluate is the shared core on the checked-out state st: the backward
// deposit phase followed by the forward scan phase. dist must have
// len(sources)*len(targets) cells; it is +Inf-initialised here. When
// needPaths is set, each finite cell's overlay arc chain is recorded into
// st.arcs and st.cellOff.
func (m *MTM) evaluate(st *mtmState, dist []float64, sources, targets []roadnet.NodeID, needPaths bool) (search.Stats, error) {
	o := m.o
	var stats search.Stats
	if len(sources) == 0 || len(targets) == 0 {
		return stats, fmt.Errorf("ch: many-to-many table needs at least one source and one target (got |S|=%d, |T|=%d): %w",
			len(sources), len(targets), search.ErrEmptyQuery)
	}
	for _, s := range sources {
		if !validNode(o, s) {
			return stats, fmt.Errorf("ch: invalid source node %d", s)
		}
	}
	for _, t := range targets {
		if !validNode(o, t) {
			return stats, fmt.Errorf("ch: invalid target node %d", t)
		}
	}
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
		st.arcs = st.arcs[:0]
		st.cellOff = append(st.cellOff[:0], 0)
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
			if err := m.recordChains(st, s, row); err != nil {
				return stats, err
			}
		}
	}
	m.scanned.Add(scanned)
	m.tables.Add(1)
	return stats, nil
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

// recordChains appends to st.arcs, for every finite cell of s's row, the
// overlay arc chain source→apex (the forward sweep's relaxing arcs, walked
// back from the meeting node) followed by apex→target (walked through the
// bucket entries' via arcs), and closes the row's cell offsets in
// st.cellOff.
func (m *MTM) recordChains(st *mtmState, s roadnet.NodeID, row []float64) error {
	o := m.o
	arcs := st.arcs
	for j := range row {
		if !math.IsInf(row[j], 1) {
			// Forward half: meet→source through the relaxing arcs, emitted
			// in source→meet travel order.
			st.chain = st.chain[:0]
			for at := st.bestMeet[j]; at != s; {
				a := st.lab.via[at]
				if a < 0 {
					return fmt.Errorf("ch: internal error: forward sweep tree does not reach source %d", s)
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
					return fmt.Errorf("ch: internal error: backward sweep chain broken at node %d", next)
				}
			}
		}
		st.cellOff = append(st.cellOff, int32(len(arcs)))
	}
	st.arcs = arcs
	return nil
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

// appendArcOnce appends arc a's unpacked nodes to dst. When an earlier
// occurrence of a in the same table already unpacked it into dst, memo holds
// that window and the nodes are copied from it; otherwise a is unpacked and
// its window recorded. memo's length is a power of two.
func (o *Overlay) appendArcOnce(dst []roadnet.NodeID, a int32, memo []arcWindow) []roadnet.NodeID {
	mask := uint32(len(memo) - 1)
	for h := (uint32(a) * 0x9e3779b1) & mask; ; h = (h + 1) & mask {
		w := &memo[h]
		switch w.key {
		case a + 1:
			return append(dst, dst[w.start:w.end]...)
		case 0:
			start := int32(len(dst))
			dst = o.appendArc(dst, a)
			*w = arcWindow{key: a + 1, start: start, end: int32(len(dst))}
			return dst
		}
	}
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

// verifyAccessor binds an evaluation to the overlay's graph. CH reads the
// preprocessed index, not the graph — which is the whole point — so the
// accessor must present exactly the arcs the overlay was contracted over: a
// versioned accessor (storage.Versioned, a weight snapshot) must be at the
// generation bound with BindGeneration, since a generation move marks the
// data changed even when the weights end up the same; and the accessor's
// graph must checksum-match the overlay (memoised per graph). A nil accessor
// is the caller taking responsibility for the binding.
func (m *MTM) verifyAccessor(acc storage.Accessor) error {
	if acc == nil {
		return nil
	}
	if v, ok := acc.(storage.Versioned); ok && v.Generation() != m.gen.Load() {
		return fmt.Errorf("ch: accessor generation %d, overlay bound to %d: %w", v.Generation(), m.gen.Load(), search.ErrStaleEngine)
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

// EvaluateTable evaluates the full Q(S, T) result on acc, every cell's route
// in the result's one node arena (the wire reply needs every cell). The
// distances land in the result's Dist and the arc chains stay in the pooled
// state, unpacked before it returns to the pool. Each distinct chain arc of
// the table is unpacked once (see appendArcOnce), into the state's scratch
// arena — whose final size is known only once every cell is unpacked — and
// the whole table is then copied once into an exactly-sized arena the result
// owns. That arena is node-for-node what Table.AppendPath gives cell by cell.
func (m *MTM) EvaluateTable(acc storage.Accessor, sources, dests []roadnet.NodeID) (search.Table, error) {
	if err := m.verifyAccessor(acc); err != nil {
		return search.Table{}, err
	}
	st := mtmStates.Get().(*mtmState)
	defer mtmStates.Put(st)
	res := search.Table{Dist: make([]float64, len(sources)*len(dests))}
	stats, err := m.evaluate(st, res.Dist, sources, dests, true)
	if err != nil {
		return search.Table{}, err
	}
	res.Sources, res.Dests, res.Stats = slices.Clone(sources), slices.Clone(dests), stats
	res.Ends = make([]int32, len(res.Dist))
	nodes := st.unpacked[:0]
	memo := st.resetMemo(len(st.arcs))
	for c, d := range res.Dist {
		if !math.IsInf(d, 1) {
			nodes = append(nodes, sources[c/len(dests)])
			for _, a := range st.arcs[st.cellOff[c]:st.cellOff[c+1]] {
				nodes = m.o.appendArcOnce(nodes, a, memo)
			}
		}
		res.Ends[c] = int32(len(nodes))
	}
	st.unpacked = nodes
	res.Nodes = make([]roadnet.NodeID, len(nodes))
	copy(res.Nodes, nodes)
	return res, nil
}

// EvaluateDistances is EvaluateTable's distance-only fast path: Dist is
// filled, there are no paths, and no route is ever unpacked.
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
