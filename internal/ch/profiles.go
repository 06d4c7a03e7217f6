package ch

import (
	"fmt"
	"sync"

	"opaque/internal/roadnet"
)

// This file implements multi-layer overlay weight storage keyed by profile
// name. An overlay separates its frozen half (contraction order, shortcut
// structure, CSR topology — identical for every metric) from its weight
// layer (customized costs — one per metric). Recustomize exploits
// that split to produce a sibling overlay sharing the frozen half with fresh
// weights, and a ProfileSet keeps N such siblings hot: one precustomized
// weight layer per named weight profile (time-of-day multipliers and the
// like), built once and then served with zero customization work on the
// query path. An LRU bounds residency — each layer costs O(arcs+shortcuts)
// float64s — and an eviction hook lets the owner drop derived state (engines,
// processors) in the same breath.

// ProfileSetStats counts a ProfileSet's traffic.
type ProfileSetStats struct {
	// Hits counts Layer calls that found the layer hot; Misses counts
	// Install calls (every miss costs one customization pass).
	Hits   int64
	Misses int64
	// Evictions counts layers dropped by the LRU bound.
	Evictions int64
	// Layers is the number of layers currently resident.
	Layers int
}

// HitRatio returns Hits/(Hits+Misses), or 0 before any traffic.
func (s ProfileSetStats) HitRatio() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// ProfileSet is an LRU-bounded set of precustomized overlay weight layers
// sharing one frozen topology. Safe for concurrent use; the customization
// pass itself (Install's input) is the caller's to run outside any lock.
//
// The set holds its own layers and nothing else: Install is handed the
// overlay to customize from on every call rather than keeping a base, so a
// server whose live overlay moves on through re-customizations does not pin
// its startup weight layer here.
type ProfileSet struct {
	capacity int

	mu      sync.Mutex
	entries map[string]*profileLayer
	order   []string // LRU order, least recently used first
	onEvict func(name string)

	hits, misses, evictions int64
}

// profileLayer pairs a customized weight layer with the profile graph it was
// customized for — the graph queries on this layer must be verified against.
type profileLayer struct {
	layer *Overlay
	graph *roadnet.Graph
}

// NewProfileSet builds an empty set keeping at most capacity layers hot
// (capacity <= 0 defaults to 8).
func NewProfileSet(capacity int) *ProfileSet {
	if capacity <= 0 {
		capacity = 8
	}
	return &ProfileSet{capacity: capacity, entries: make(map[string]*profileLayer)}
}

// SetOnEvict installs a hook called (under the set's lock — it must not call
// back into the set) with the name of every evicted layer, so the owner can
// drop engines and processors derived from it.
func (ps *ProfileSet) SetOnEvict(fn func(name string)) {
	ps.mu.Lock()
	ps.onEvict = fn
	ps.mu.Unlock()
}

// Layer returns the hot layer for name and the profile graph it was
// customized for, marking it most recently used. A miss returns ok=false
// without counting (Install counts the miss when the rebuilt layer lands).
func (ps *ProfileSet) Layer(name string) (layer *Overlay, graph *roadnet.Graph, ok bool) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	e, ok := ps.entries[name]
	if !ok {
		return nil, nil, false
	}
	ps.hits++
	ps.touch(name)
	return e.layer, e.graph, true
}

// Install customizes a weight layer for the profile graph g on base's frozen
// half (one full customization pass — seconds on large maps, so callers
// build at startup or accept the latency on first use) and inserts it under
// name, evicting the least recently used layer beyond capacity. Reinstalling
// a name replaces its layer. base may be any customized generation of the
// overlay — the pass reads its topology, not its weights.
func (ps *ProfileSet) Install(name string, base *Overlay, g *roadnet.Graph) (*Overlay, error) {
	if name == "" {
		return nil, fmt.Errorf("ch: profile layer needs a non-empty name")
	}
	if base == nil {
		return nil, fmt.Errorf("ch: profile layer %q needs a base overlay", name)
	}
	layer, err := base.Recustomize(g)
	if err != nil {
		return nil, fmt.Errorf("ch: customizing profile layer %q: %w", name, err)
	}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	ps.misses++
	if _, exists := ps.entries[name]; exists {
		ps.touch(name)
	} else {
		ps.order = append(ps.order, name)
	}
	ps.entries[name] = &profileLayer{layer: layer, graph: g}
	for len(ps.order) > ps.capacity {
		victim := ps.order[0]
		ps.order = ps.order[1:]
		delete(ps.entries, victim)
		ps.evictions++
		if ps.onEvict != nil {
			ps.onEvict(victim)
		}
	}
	return layer, nil
}

// touch moves name to the most-recently-used end. Caller holds ps.mu.
func (ps *ProfileSet) touch(name string) {
	for i, n := range ps.order {
		if n == name {
			copy(ps.order[i:], ps.order[i+1:])
			ps.order[len(ps.order)-1] = name
			return
		}
	}
}

// Names returns the resident layer names, least recently used first.
func (ps *ProfileSet) Names() []string {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return append([]string(nil), ps.order...)
}

// Stats returns a snapshot of the set's counters.
func (ps *ProfileSet) Stats() ProfileSetStats {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return ProfileSetStats{
		Hits:      ps.hits,
		Misses:    ps.misses,
		Evictions: ps.evictions,
		Layers:    len(ps.entries),
	}
}
