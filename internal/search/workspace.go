package search

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"opaque/internal/pqueue"
	"opaque/internal/roadnet"
	"opaque/internal/storage"
)

// Workspace holds every piece of per-search state a Dijkstra-family
// algorithm needs — distance labels, parent pointers, settled flags, the
// priority queue — in epoch-stamped arrays, so that "resetting" the
// workspace for the next query is a single counter bump instead of an O(n)
// Inf-fill. This is what makes per-query cost proportional to the nodes a
// search actually touches: a point query that settles 500 nodes of a
// 500,000-node map reads and writes ~500 label slots, while the pre-workspace
// fresh-slice path paid two O(n) allocations and fills before relaxing its
// first arc.
//
// A label slot v is valid only when stamp[v] equals the current epoch;
// distOf treats every other slot as +Inf, exactly like the old Inf-filled
// slices. The settled set (done) and the SSMD destination set (mark) use the
// same trick with their own epochs.
//
// The relaxation closure (relaxPlain) is allocated once per workspace, with
// the in-flight expansion state (acc, u, du) passed through workspace fields
// rather than captures. Combined with the storage.Accessor.ForEachArc
// streaming iteration this keeps the steady-state relax loop allocation-free:
// TestSearchKernelAllocs pins 0 allocs for a distance query and for an SSMD
// row appended into a reused table.
//
// A Workspace is not safe for concurrent use. The package's own searches
// draw one per query (or per cached tree) from a WorkspacePool and always
// return it; a caller that runs many searches on one goroutine holds its own
// from NewWorkspace. Every one-shot search method (Dijkstra,
// DijkstraDistance, SSMD, AppendSSMD) resets the workspace itself, so a
// worker can reuse one workspace across any sequence of queries — and across
// graph generations, since Reset sizes the arrays to the accessor it is
// given.
type Workspace struct {
	epoch  uint32
	dist   []float64
	parent []roadnet.NodeID
	stamp  []uint32 // dist/parent valid iff stamp[v] == epoch
	done   []uint32 // v settled iff done[v] == epoch

	markEpoch uint32
	mark      []uint32 // scratch node-set membership (SSMD pending dests)

	heap  *pqueue.DenseHeap
	stats Stats

	// In-flight relaxation state read by the prebuilt closures below.
	acc storage.Accessor
	u   roadnet.NodeID
	du  float64

	relaxPlain func(roadnet.Arc) bool
}

// NewWorkspace returns a workspace sized for an n-node graph. It grows
// automatically when reset against a larger accessor.
func NewWorkspace(n int) *Workspace {
	w := &Workspace{heap: pqueue.NewDenseHeap(n)}
	w.relaxPlain = func(a roadnet.Arc) bool {
		w.stats.RelaxedArcs++
		nd := w.du + a.Cost
		if nd < w.distOf(a.To) {
			w.label(a.To, nd, w.u)
			w.heap.Push(int32(a.To), nd)
			w.stats.QueueOps++
		}
		return true
	}
	w.Reset(n)
	return w
}

// Reset invalidates every label, settled flag and queue entry and ensures
// the workspace addresses nodes 0..n-1. It runs in O(1) amortised — the
// arrays are invalidated by bumping the epoch, not by filling them.
func (w *Workspace) Reset(n int) {
	w.ensure(n)
	if w.epoch == ^uint32(0) {
		// Epoch wrap: one O(n) clear per 2^32 resets so stale stamps can
		// never collide with a reused epoch value.
		for i := range w.stamp {
			w.stamp[i] = 0
			w.done[i] = 0
		}
		w.epoch = 0
	}
	w.epoch++
	w.heap.Reset(n)
	w.stats = Stats{}
	w.acc = nil
}

// ensure grows the label arrays to cover nodes 0..n-1. Grown slots carry
// stamp 0, which never equals a live epoch (epochs start at 1).
func (w *Workspace) ensure(n int) {
	if n <= len(w.stamp) {
		return
	}
	grow := n - len(w.stamp)
	w.dist = append(w.dist, make([]float64, grow)...)
	w.parent = append(w.parent, make([]roadnet.NodeID, grow)...)
	w.stamp = append(w.stamp, make([]uint32, grow)...)
	w.done = append(w.done, make([]uint32, grow)...)
	w.mark = append(w.mark, make([]uint32, grow)...)
}

// begin resets the workspace for a one-shot search against acc.
func (w *Workspace) begin(acc storage.Accessor) {
	w.Reset(acc.NumNodes())
	w.acc = acc
}

// distOf returns v's tentative distance, +Inf when unlabelled this epoch.
//
//opaque:noalloc
func (w *Workspace) distOf(v roadnet.NodeID) float64 {
	if w.stamp[v] != w.epoch {
		return math.Inf(1)
	}
	return w.dist[v]
}

// label records a tentative distance and parent for v.
//
//opaque:noalloc
func (w *Workspace) label(v roadnet.NodeID, d float64, parent roadnet.NodeID) {
	w.dist[v] = d
	w.parent[v] = parent
	w.stamp[v] = w.epoch
}

// parentOf returns v's parent pointer, InvalidNode when unlabelled.
//
//opaque:noalloc
func (w *Workspace) parentOf(v roadnet.NodeID) roadnet.NodeID {
	if w.stamp[v] != w.epoch {
		return roadnet.InvalidNode
	}
	return w.parent[v]
}

// settled reports whether v has been marked settled this epoch.
//
//opaque:noalloc
func (w *Workspace) settled(v roadnet.NodeID) bool { return w.done[v] == w.epoch }

// settle marks v settled.
//
//opaque:noalloc
func (w *Workspace) settle(v roadnet.NodeID) { w.done[v] = w.epoch }

// bumpMark invalidates the scratch node set (SSMD pending destinations).
//
//opaque:noalloc
func (w *Workspace) bumpMark() {
	if w.markEpoch == ^uint32(0) {
		for i := range w.mark {
			w.mark[i] = 0
		}
		w.markEpoch = 0
	}
	w.markEpoch++
}

// expand relaxes every outgoing arc of u with the plain Dijkstra rule.
//
//opaque:noalloc
func (w *Workspace) expand(u roadnet.NodeID) {
	w.u, w.du = u, w.dist[u]
	w.acc.ForEachArc(u, w.relaxPlain)
}

// appendPath appends the source→dest path recorded in the parent pointers to
// dst: the walk runs dest→source, so the nodes are appended backwards and the
// new segment reversed in place — no scratch slice. Nothing is appended when
// dest is unlabelled or its chain does not reach source.
func (w *Workspace) appendPath(dst []roadnet.NodeID, source, dest roadnet.NodeID) []roadnet.NodeID {
	if w.stamp[dest] != w.epoch || math.IsInf(w.dist[dest], 1) {
		return dst
	}
	start := len(dst)
	for at := dest; at != roadnet.InvalidNode; at = w.parentOf(at) {
		dst = append(dst, at)
		if at == source {
			break
		}
	}
	if dst[len(dst)-1] != source {
		return dst[:start]
	}
	slices.Reverse(dst[start:])
	return dst
}

// reconstruct returns the source→dest path recorded in the parent pointers
// as a Path of its own (empty when dest was not reached).
func (w *Workspace) reconstruct(source, dest roadnet.NodeID) Path {
	nodes := w.appendPath(nil, source, dest)
	if len(nodes) == 0 {
		return Path{}
	}
	return Path{Nodes: nodes, Cost: w.dist[dest]}
}

// appendCell appends dest's cell to t once the search that labelled it is
// over: its path and distance, or an empty path at +Inf when settled is
// false (the frontier was exhausted without reaching it).
func (w *Workspace) appendCell(t *Table, source, dest roadnet.NodeID, settled bool) {
	before := len(t.Nodes)
	if settled {
		t.Nodes = w.appendPath(t.Nodes, source, dest)
	}
	if len(t.Nodes) == before {
		t.EndCell(math.Inf(1))
		return
	}
	t.EndCell(w.dist[dest])
}

// Dijkstra computes the shortest path from source to dest with early
// termination when dest is settled, reusing this workspace's storage. It is
// the workspace form of the package-level Dijkstra and returns identical
// paths and statistics.
func (w *Workspace) Dijkstra(acc storage.Accessor, source, dest roadnet.NodeID) (Path, Stats, error) {
	if err := checkEndpoints(acc, source, dest); err != nil {
		return Path{}, Stats{}, err
	}
	w.begin(acc)
	w.label(source, 0, roadnet.InvalidNode)
	w.heap.Push(int32(source), 0)
	w.stats.QueueOps++

	for !w.heap.Empty() {
		if w.heap.Len() > w.stats.MaxFrontier {
			w.stats.MaxFrontier = w.heap.Len()
		}
		item := w.heap.Pop()
		u := roadnet.NodeID(item.Value)
		if item.Priority > w.dist[u] {
			continue // stale entry
		}
		w.stats.SettledNodes++
		if u == dest {
			return w.reconstruct(source, dest), w.stats, nil
		}
		w.expand(u)
	}
	return Path{}, w.stats, nil
}

// DijkstraDistance returns only the shortest-path distance from source to
// dest (+Inf when unreachable), terminating as soon as dest is settled and
// skipping path reconstruction entirely. In steady state it performs no heap
// allocation at all.
//
//opaque:noalloc
func (w *Workspace) DijkstraDistance(acc storage.Accessor, source, dest roadnet.NodeID) (float64, Stats, error) {
	if err := checkEndpoints(acc, source, dest); err != nil {
		return 0, Stats{}, err
	}
	w.begin(acc)
	w.label(source, 0, roadnet.InvalidNode)
	w.heap.Push(int32(source), 0)
	w.stats.QueueOps++

	for !w.heap.Empty() {
		if w.heap.Len() > w.stats.MaxFrontier {
			w.stats.MaxFrontier = w.heap.Len()
		}
		item := w.heap.Pop()
		u := roadnet.NodeID(item.Value)
		if item.Priority > w.dist[u] {
			continue
		}
		w.stats.SettledNodes++
		if u == dest {
			return w.dist[u], w.stats, nil
		}
		w.expand(u)
	}
	return math.Inf(1), w.stats, nil
}

// SSMD performs the single-source multi-destination search of Section III-B
// on this workspace: a Dijkstra spanning tree grown from source until every
// destination has been settled (or the frontier is exhausted). Results and
// statistics are identical to the package-level SSMD.
func (w *Workspace) SSMD(acc storage.Accessor, source roadnet.NodeID, dests []roadnet.NodeID) (SSMDResult, error) {
	t := NewTable(nil, dests)
	stats, err := w.AppendSSMD(acc, source, dests, &t)
	if err != nil {
		return SSMDResult{}, err
	}
	return ssmdResult(source, &t, stats), nil
}

// ssmdResult presents a one-row table as an SSMDResult; its paths are windows
// of the table's arena.
func ssmdResult(source roadnet.NodeID, t *Table, stats Stats) SSMDResult {
	res := SSMDResult{Source: source, Dests: t.Dests, Paths: make([]Path, len(t.Dests)), Stats: stats}
	for i := range res.Paths {
		if nodes := t.Path(i); nodes != nil {
			res.Paths[i] = Path{Nodes: nodes, Cost: t.Dist[i]}
		}
	}
	return res
}

// AppendSSMD is SSMD appending the row straight into a table: one cell per
// destination, in order — the parent walk of each reached destination goes
// into t's arena, an unreachable one gets an empty path at +Inf.
func (w *Workspace) AppendSSMD(acc storage.Accessor, source roadnet.NodeID, dests []roadnet.NodeID, t *Table) (Stats, error) {
	if err := checkSSMDEndpoints(acc, source, dests); err != nil {
		return Stats{}, err
	}
	w.begin(acc)

	// The pending-destination set lives in the mark array: O(1) to reset,
	// duplicates collapse exactly like the reference map-based set.
	w.bumpMark()
	pending := 0
	for _, d := range dests {
		if w.mark[d] != w.markEpoch {
			w.mark[d] = w.markEpoch
			pending++
		}
	}

	w.label(source, 0, roadnet.InvalidNode)
	w.heap.Push(int32(source), 0)
	w.stats.QueueOps++
	if w.mark[source] == w.markEpoch {
		w.mark[source] = w.markEpoch - 1 // un-mark: source is served trivially
		pending--
	}

	for !w.heap.Empty() && pending > 0 {
		if w.heap.Len() > w.stats.MaxFrontier {
			w.stats.MaxFrontier = w.heap.Len()
		}
		item := w.heap.Pop()
		u := roadnet.NodeID(item.Value)
		if item.Priority > w.dist[u] {
			continue
		}
		w.stats.SettledNodes++
		if w.mark[u] == w.markEpoch {
			w.mark[u] = w.markEpoch - 1
			pending--
			if pending == 0 {
				break
			}
		}
		w.expand(u)
	}

	for _, d := range dests {
		w.appendCell(t, source, d, true)
	}
	return w.stats, nil
}

// checkSSMDEndpoints validates an SSMD query's endpoints.
func checkSSMDEndpoints(acc storage.Accessor, source roadnet.NodeID, dests []roadnet.NodeID) error {
	if !validNode(acc, source) {
		return errInvalidSource(source)
	}
	if len(dests) == 0 {
		return errNoDestinations()
	}
	for _, d := range dests {
		if !validNode(acc, d) {
			return errInvalidDest(d)
		}
	}
	return nil
}

// WorkspacePool lends Workspaces to this package's searches for the duration
// of one query (or one resumable spanning tree). Checkout is unexported:
// every get is paired with a put inside package search, and
// TestWorkspaceCheckoutsBalanced holds each site to it. Other packages build
// a pool, hand it to a Processor or TreeCache and read its Stats. It is
// backed by a sync.Pool, so idle workspaces are reclaimed under memory
// pressure and each P keeps a hot workspace whose arrays are already sized
// for the graph — the steady-state get/put pair performs no allocation.
//
// One pool serves mixed graph sizes and graph generations: get resets the
// workspace against the requested node count, growing the arrays when a
// larger graph (or a new, bigger generation) arrives, and the epoch bump
// guarantees no label from an earlier graph can leak into the next search.
type WorkspacePool struct {
	p sync.Pool

	gets  atomic.Int64
	puts  atomic.Int64
	fresh atomic.Int64
}

// WorkspacePoolStats is a snapshot of a pool's checkout counters; the server
// surfaces them as gauges and in its periodic stats log.
type WorkspacePoolStats struct {
	// Gets counts checkouts; Puts counts returns. Gets - Puts is the number
	// of workspaces in flight at snapshot time — which, on a server with the
	// tree cache enabled, includes the workspaces cached spanning trees
	// deliberately hold for their cache lifetime, not just searches
	// mid-query.
	Gets, Puts int64
	// Fresh counts Gets that had to construct a new workspace because the
	// pool was empty (a cold start or GC reclaim). In steady state Fresh
	// stays flat while Gets keeps climbing — the zero-allocation hot path.
	Fresh int64
}

// InFlight returns the number of workspaces currently checked out.
func (s WorkspacePoolStats) InFlight() int64 { return s.Gets - s.Puts }

// ReuseRatio returns the fraction of checkouts served by a recycled
// workspace, (Gets - Fresh) / Gets, or 0 before any checkout.
func (s WorkspacePoolStats) ReuseRatio() float64 {
	if s.Gets == 0 {
		return 0
	}
	return float64(s.Gets-s.Fresh) / float64(s.Gets)
}

// NewWorkspacePool returns an empty pool.
func NewWorkspacePool() *WorkspacePool {
	wp := &WorkspacePool{}
	wp.p.New = func() any {
		wp.fresh.Add(1)
		return NewWorkspace(0)
	}
	return wp
}

// get checks a workspace out of the pool, reset and sized for an n-node
// graph. Pair it with a put on the same pool.
func (wp *WorkspacePool) get(n int) *Workspace {
	wp.gets.Add(1)
	w := wp.p.Get().(*Workspace)
	w.Reset(n)
	return w
}

// put returns a workspace to the pool. The workspace must not be used after
// put; the next get invalidates all of its state.
func (wp *WorkspacePool) put(w *Workspace) {
	wp.puts.Add(1)
	w.acc = nil // do not pin graphs from inside the pool
	wp.p.Put(w)
}

// Stats returns a snapshot of the pool's checkout counters.
func (wp *WorkspacePool) Stats() WorkspacePoolStats {
	return WorkspacePoolStats{
		Gets:  wp.gets.Load(),
		Puts:  wp.puts.Load(),
		Fresh: wp.fresh.Load(),
	}
}

// sharedWorkspaces backs the package-level wrappers (Dijkstra, SSMD, …) and
// every Processor or TreeCache built without a pool of its own.
var sharedWorkspaces = NewWorkspacePool()
