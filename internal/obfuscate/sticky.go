package obfuscate

import (
	"slices"
	"sync"

	"opaque/internal/roadnet"
)

// StickySelector wraps another EndpointSelector and memoises its choices per
// true endpoint: repeated obfuscations of the same endpoint reuse the same
// fakes instead of drawing fresh ones.
//
// Why this matters: Section II notes the server "can accumulate all the path
// queries received". If a user asks for the same trip repeatedly and the
// obfuscator draws fresh fakes every time, intersecting the observed S (and
// T) sets across requests isolates the endpoints that appear every time —
// the true ones (see privacy.AnalyzeLinkage and experiment E10). Reusing the
// same fakes makes every observation identical, so the intersection never
// shrinks and repeated queries leak nothing beyond the first.
//
// The memo is keyed by the true endpoint alone, not by user, because the
// obfuscator discards per-request state once a request is answered
// (Section IV); endpoint-keyed memoisation preserves that property while
// still defeating intersection attacks. Capacity is bounded; when full, the
// memo evicts the entry for the lowest-numbered node, which keeps eviction
// deterministic.
type StickySelector struct {
	inner EndpointSelector
	// MaxEntries bounds the memo (0 means DefaultStickyEntries).
	maxEntries int

	mu   sync.Mutex
	memo map[roadnet.NodeID][]roadnet.NodeID
}

// DefaultStickyEntries is the default memo capacity.
const DefaultStickyEntries = 65536

// NewStickySelector wraps inner with per-endpoint memoisation.
func NewStickySelector(inner EndpointSelector, maxEntries int) *StickySelector {
	if maxEntries <= 0 {
		maxEntries = DefaultStickyEntries
	}
	return &StickySelector{
		inner:      inner,
		maxEntries: maxEntries,
		memo:       make(map[roadnet.NodeID][]roadnet.NodeID),
	}
}

// Name implements EndpointSelector.
func (s *StickySelector) Name() string { return "sticky-" + s.inner.Name() }

// SelectFakes implements EndpointSelector. Cached fakes are reused when they
// satisfy the count and exclusion constraints; otherwise the inner selector
// tops them up and the cache is updated.
func (s *StickySelector) SelectFakes(g *roadnet.Graph, truth roadnet.NodeID, count int, exclude map[roadnet.NodeID]struct{}) []roadnet.NodeID {
	s.mu.Lock()
	cached := s.memo[truth]
	s.mu.Unlock()

	out := make([]roadnet.NodeID, 0, count)
	used := make(map[roadnet.NodeID]struct{}, count)
	for _, id := range cached {
		if len(out) >= count {
			break
		}
		if id == truth {
			continue
		}
		if _, skip := exclude[id]; skip {
			continue
		}
		if _, dup := used[id]; dup {
			continue
		}
		out = append(out, id)
		used[id] = struct{}{}
	}
	if len(out) < count {
		// Ask the inner selector for the remainder, excluding what we have.
		innerExclude := make(map[roadnet.NodeID]struct{}, len(exclude)+len(used))
		for id := range exclude {
			innerExclude[id] = struct{}{}
		}
		for id := range used {
			innerExclude[id] = struct{}{}
		}
		fresh := s.inner.SelectFakes(g, truth, count-len(out), innerExclude)
		out = append(out, fresh...)
	}

	// Update the memo with the union of cached and newly drawn fakes so that
	// future, larger requests still start from the same pool.
	s.mu.Lock()
	defer s.mu.Unlock()
	merged := mergeNodeSets(cached, out)
	if _, exists := s.memo[truth]; !exists && len(s.memo) >= s.maxEntries {
		s.evictLocked()
	}
	s.memo[truth] = merged
	return out
}

// Entries returns the number of memoised endpoints (for tests and metrics).
func (s *StickySelector) Entries() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.memo)
}

// Reset clears the memo.
func (s *StickySelector) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.memo = make(map[roadnet.NodeID][]roadnet.NodeID)
}

// evictLocked removes the entry with the smallest node ID. Callers hold mu.
func (s *StickySelector) evictLocked() {
	first := roadnet.InvalidNode
	for id := range s.memo {
		if first == roadnet.InvalidNode || id < first {
			first = id
		}
	}
	if first != roadnet.InvalidNode {
		delete(s.memo, first)
	}
}

// mergeNodeSets unions two id slices, deduplicated, in ascending order.
func mergeNodeSets(a, b []roadnet.NodeID) []roadnet.NodeID {
	set := make(map[roadnet.NodeID]struct{}, len(a)+len(b))
	for _, id := range a {
		set[id] = struct{}{}
	}
	for _, id := range b {
		set[id] = struct{}{}
	}
	out := make([]roadnet.NodeID, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}
