package search

import (
	"container/list"
	"sync"
	"sync/atomic"

	"opaque/internal/roadnet"
	"opaque/internal/storage"
)

// TreeCacheStats is a snapshot of the cache's effectiveness counters.
type TreeCacheStats struct {
	// Hits counts AppendPaths calls served by an existing tree (possibly
	// after resuming its growth); Misses counts calls that had to build a
	// tree.
	Hits, Misses int64
	// Resumes counts hits that still had to grow the tree further because a
	// destination was not settled yet (a partial hit).
	Resumes int64
	// Evictions counts trees dropped to respect the capacity bound;
	// Invalidations counts trees dropped because the accessor's data
	// generation moved past them.
	Evictions, Invalidations int64
}

// HitRatio returns Hits / (Hits + Misses), or 0 before any lookup.
func (s TreeCacheStats) HitRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// TreeCache is an LRU cache of resumable SSMD spanning trees keyed by
// (source node, accessor data generation). The directions search server uses
// it to share settled shortest-path trees across obfuscated queries whose
// source sets overlap — under shared-mode obfuscation the obfuscator
// deliberately reuses endpoints, so consecutive Q(S, T) batches hit the same
// sources again and again. A hit turns a full Dijkstra run into (at worst) an
// incremental frontier expansion and (at best) pure path reconstruction.
//
// Entries computed under an older accessor generation (see storage.Versioned)
// are dropped the moment the same source is requested again, so querying a
// newer weight snapshot (storage.MutableGraph.Snapshot after UpdateWeights)
// invalidates the cache without any coordination.
//
// TreeCache is safe for concurrent use. The cache lock is held only for
// lookup bookkeeping — building a new tree (an O(1) epoch-stamped workspace
// checkout) happens outside it, and tree growth runs under the individual
// tree's lock — so queries on distinct sources proceed in parallel while
// queries on the same source serialise and share each other's work.
//
// Cached trees hold their label arrays in pooled search workspaces rather
// than private O(n) slices: the cache retains one reference per entry and
// every AppendPaths pins the tree for the duration of the call, so an
// eviction or invalidation recycles the workspace to the pool as soon as the
// last in-flight query on that tree finishes.
type TreeCache struct {
	capacity int
	// wsPool supplies the workspaces new trees live on; evicted trees
	// recycle theirs back into the same pool.
	wsPool *WorkspacePool

	mu      sync.Mutex
	entries map[roadnet.NodeID]*list.Element // at most one entry per source
	lru     *list.List                       // front = most recently used; values are *cacheEntry

	hits          atomic.Int64
	misses        atomic.Int64
	resumes       atomic.Int64
	evictions     atomic.Int64
	invalidations atomic.Int64
}

type cacheEntry struct {
	source roadnet.NodeID
	gen    uint64
	tree   *Tree
}

// DefaultTreeCacheSize is the tree capacity used when a caller enables the
// cache without choosing a size. Each tree costs O(n) memory for the distance
// and parent labels of an n-node graph.
const DefaultTreeCacheSize = 256

// NewTreeCacheWithPool returns a cache holding at most capacity trees (values
// < 1 use DefaultTreeCacheSize), drawing tree workspaces from wp (nil = the
// package's shared pool), so a server can keep its cached spanning trees on
// the same pool its batch workers draw per-query workspaces from.
func NewTreeCacheWithPool(capacity int, wp *WorkspacePool) *TreeCache {
	if capacity < 1 {
		capacity = DefaultTreeCacheSize
	}
	if wp == nil {
		wp = sharedWorkspaces
	}
	return &TreeCache{
		capacity: capacity,
		wsPool:   wp,
		entries:  make(map[roadnet.NodeID]*list.Element, capacity),
		lru:      list.New(),
	}
}

// Len returns the number of trees currently cached.
func (c *TreeCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Stats returns a snapshot of the cache counters.
func (c *TreeCache) Stats() TreeCacheStats {
	return TreeCacheStats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Resumes:       c.resumes.Load(),
		Evictions:     c.evictions.Load(),
		Invalidations: c.invalidations.Load(),
	}
}

// AppendPaths answers the single-source multi-destination query (source,
// dests) from the cache, building or resuming the source's spanning tree as
// needed, and appends the row to a table (see Workspace.AppendSSMD). The
// cells are identical to a cold SSMD call; the returned Stats count only the
// incremental work performed. The table owns what it receives: nothing in it
// aliases the cached tree.
func (c *TreeCache) AppendPaths(acc storage.Accessor, source roadnet.NodeID, dests []roadnet.NodeID, row *Table) (Stats, error) {
	tree, hit, err := c.lookup(acc, source)
	if err != nil {
		return Stats{}, err
	}
	// lookup pinned the tree for us; let go once the paths are extracted so
	// an eviction that raced this call can recycle the tree's workspace.
	defer tree.Release()
	stats, err := tree.AppendPaths(dests, row)
	if err != nil {
		return Stats{}, err
	}
	if hit {
		c.hits.Add(1)
		if stats.SettledNodes > 0 || stats.RelaxedArcs > 0 {
			c.resumes.Add(1) // partial hit: the tree had to grow further
		}
	} else {
		c.misses.Add(1)
	}
	return stats, nil
}

// lookup returns the cached tree for (source, current generation), creating
// it on a miss, and reports whether it was already present. The returned
// tree is pinned (reference held) for the caller, who must Release it.
func (c *TreeCache) lookup(acc storage.Accessor, source roadnet.NodeID) (*Tree, bool, error) {
	gen := storage.GenerationOf(acc)
	if tree, ok := c.fetch(source, gen); ok {
		return tree, true, nil
	}
	// Build outside the lock: checking the tree's workspace out of the pool
	// (and any array growth it triggers) must not serialise unrelated
	// lookups.
	tree, err := newTree(c.wsPool, acc, source)
	if err != nil {
		return nil, false, err
	}

	// Recheck and insert under ONE lock acquisition: with separate ones,
	// two concurrent misses for the same source could both pass the recheck
	// and both insert, stranding a duplicate LRU element whose eventual
	// eviction would delete the live map entry.
	c.mu.Lock()
	if el, ok := c.entries[source]; ok {
		entry := el.Value.(*cacheEntry)
		if entry.gen == gen {
			// A concurrent miss for the same source inserted first; share
			// its tree (and whatever growth it has already paid for), and
			// recycle the tree we built for nothing.
			c.lru.MoveToFront(el)
			entry.tree.retain()
			c.mu.Unlock()
			tree.Release()
			return entry.tree, true, nil
		}
		// Stale generation: drop it without recounting the invalidation the
		// first fetch already charged.
		c.removeLocked(el)
	}
	el := c.lru.PushFront(&cacheEntry{source: source, gen: gen, tree: tree})
	c.entries[source] = el
	// The creator reference now belongs to the cache entry; pin once more
	// for the caller.
	tree.retain()
	for c.lru.Len() > c.capacity {
		c.removeLocked(c.lru.Back())
		c.evictions.Add(1)
	}
	c.mu.Unlock()
	return tree, false, nil
}

// fetch returns the cached current-generation tree for source pinned for the
// caller, dropping a stale-generation entry (recorded as an invalidation)
// when it finds one instead.
func (c *TreeCache) fetch(source roadnet.NodeID, gen uint64) (*Tree, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[source]
	if !ok {
		return nil, false
	}
	entry := el.Value.(*cacheEntry)
	if entry.gen != gen {
		c.removeLocked(el)
		c.invalidations.Add(1)
		return nil, false
	}
	c.lru.MoveToFront(el)
	// Pin under the cache lock: the cache's own reference is only ever
	// dropped under the same lock, so the tree is guaranteed live here.
	entry.tree.retain()
	return entry.tree, true
}

// removeLocked removes one LRU element and drops the cache's reference to
// its tree, recycling the tree's workspace once any in-flight queries are
// done with it. Caller holds c.mu.
func (c *TreeCache) removeLocked(el *list.Element) {
	entry := el.Value.(*cacheEntry)
	delete(c.entries, entry.source)
	c.lru.Remove(el)
	entry.tree.Release()
}
