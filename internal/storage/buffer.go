package storage

import (
	"container/list"
	"fmt"
	"sync"
)

// IOStats counts logical and physical page accesses observed by a BufferPool.
type IOStats struct {
	// Accesses is the number of logical page requests.
	Accesses int64
	// Faults is the number of requests that missed the buffer and would have
	// caused a physical disk read.
	Faults int64
	// Evictions is the number of pages evicted to make room.
	Evictions int64
}

// HitRatio returns the fraction of accesses served from the buffer.
func (s IOStats) HitRatio() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return 1 - float64(s.Faults)/float64(s.Accesses)
}

// Add accumulates other into s and returns the sum.
func (s IOStats) Add(other IOStats) IOStats {
	return IOStats{
		Accesses:  s.Accesses + other.Accesses,
		Faults:    s.Faults + other.Faults,
		Evictions: s.Evictions + other.Evictions,
	}
}

// BufferPool is an LRU page buffer of fixed capacity that records access and
// fault counts. It is safe for concurrent use; the server shares one pool
// across queries to model a shared database buffer.
type BufferPool struct {
	mu       sync.Mutex
	capacity int
	lru      *list.List               // front = most recently used
	index    map[PageID]*list.Element // page -> list element
	stats    IOStats
}

// NewBufferPool returns a pool that caches up to capacity pages. Capacity
// must be at least 1.
func NewBufferPool(capacity int) (*BufferPool, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("storage: buffer pool capacity must be >= 1, got %d", capacity)
	}
	return &BufferPool{
		capacity: capacity,
		lru:      list.New(),
		index:    make(map[PageID]*list.Element, capacity),
	}, nil
}

// MustNewBufferPool is NewBufferPool but panics on error.
func MustNewBufferPool(capacity int) *BufferPool {
	bp, err := NewBufferPool(capacity)
	if err != nil {
		panic(err)
	}
	return bp
}

// Access records a logical access to page p, faulting it in if absent and
// evicting the least recently used page when full. It returns true when the
// access was a buffer hit.
func (bp *BufferPool) Access(p PageID) bool {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	bp.stats.Accesses++
	if el, ok := bp.index[p]; ok {
		bp.lru.MoveToFront(el)
		return true
	}
	bp.stats.Faults++
	if bp.lru.Len() >= bp.capacity {
		back := bp.lru.Back()
		bp.lru.Remove(back)
		delete(bp.index, back.Value.(PageID))
		bp.stats.Evictions++
	}
	bp.index[p] = bp.lru.PushFront(p)
	return false
}

// Stats returns a snapshot of the accumulated counters.
func (bp *BufferPool) Stats() IOStats {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return bp.stats
}

// Flush drops all cached pages and zeroes the counters.
func (bp *BufferPool) Flush() {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	bp.lru.Init()
	bp.index = make(map[PageID]*list.Element, bp.capacity)
	bp.stats = IOStats{}
}

// Capacity returns the pool capacity in pages.
func (bp *BufferPool) Capacity() int { return bp.capacity }

// Resident returns the number of pages currently cached.
func (bp *BufferPool) Resident() int {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return bp.lru.Len()
}
