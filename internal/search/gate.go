package search

// Gate is a counting semaphore bounding how many searches run concurrently
// across an entire server, no matter how many queries are in flight. The
// batch engine's concurrent queries share one Gate so a large batch cannot
// oversubscribe the CPU: each per-source search, and each many-to-many table
// the server evaluates on an overlay, acquires a slot for its duration.
//
// A nil Gate imposes no bound; Acquire and Release on it are no-ops.
type Gate chan struct{}

// NewGate returns a gate admitting at most n concurrent holders (n < 1
// returns a nil, unbounded gate).
func NewGate(n int) Gate {
	if n < 1 {
		return nil
	}
	return make(Gate, n)
}

// Acquire blocks until a slot is free.
func (g Gate) Acquire() {
	if g != nil {
		g <- struct{}{}
	}
}

// Release frees a slot previously acquired.
func (g Gate) Release() {
	if g != nil {
		<-g
	}
}
