package storage

import "sync/atomic"

// Versioned is an optional extension of Accessor implemented by accessors
// whose underlying data can change over the lifetime of a server (live
// traffic updates, road closures, a reloaded map). The generation number is a
// monotonically increasing counter: any derived structure (such as the SSMD
// tree cache in internal/search) that was computed under an older generation
// must be discarded.
//
// Accessors that do not implement Versioned are treated as immutable
// (generation 0 forever) by GenerationOf.
type Versioned interface {
	// Generation returns the current data generation of the accessor.
	Generation() uint64
}

// GenerationOf returns acc's current generation, or 0 when the accessor does
// not implement Versioned (i.e. is immutable).
func GenerationOf(acc Accessor) uint64 {
	if v, ok := acc.(Versioned); ok {
		return v.Generation()
	}
	return 0
}

// generation is an embeddable atomic generation counter implementing
// Versioned, with BumpGeneration for signalling a data change.
type generation struct {
	gen atomic.Uint64
}

// Generation implements Versioned.
func (g *generation) Generation() uint64 { return g.gen.Load() }

// BumpGeneration marks the accessor's data as changed, invalidating any
// cached structures keyed by the previous generation.
func (g *generation) BumpGeneration() { g.gen.Add(1) }
