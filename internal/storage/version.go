package storage

// Versioned is an optional extension of Accessor implemented by accessors
// that carry a data generation — a GraphSnapshot of a MutableGraph, whose
// weights change over the lifetime of a server (live traffic updates, road
// closures). Each weight update makes a snapshot with a higher generation:
// any derived structure (such as the SSMD tree cache in internal/search)
// that was computed under an older generation must be discarded.
//
// Accessors that do not implement Versioned are treated as immutable
// (generation 0 forever) by GenerationOf.
type Versioned interface {
	// Generation returns the data generation of the accessor.
	Generation() uint64
}

// GenerationOf returns acc's generation, or 0 when the accessor does not
// implement Versioned (i.e. is immutable).
func GenerationOf(acc Accessor) uint64 {
	if v, ok := acc.(Versioned); ok {
		return v.Generation()
	}
	return 0
}
