package server

import (
	"sort"
	"sync"

	"opaque/internal/search"
)

// numShards stripes the server's query log and statistics so concurrent
// batch workers never contend on one global mutex. Must be a power of two;
// entries are routed by the low bits of the query ID, which an atomic counter
// hands out round-robin, spreading consecutive queries across all stripes.
const numShards = 16

// shardedLog is the striped query log: what the honest-but-curious operator
// accumulates, recorded without serialising the hot path behind one lock.
type shardedLog struct {
	shards [numShards]struct {
		mu      sync.Mutex
		entries []LogEntry
	}
}

// append records one entry in the stripe owned by its query ID.
func (l *shardedLog) append(e LogEntry) {
	s := &l.shards[e.QueryID&(numShards-1)]
	s.mu.Lock()
	s.entries = append(s.entries, e)
	s.mu.Unlock()
}

// snapshot merges every stripe and returns the entries ordered by query ID
// (the order they were admitted, since IDs are handed out monotonically).
func (l *shardedLog) snapshot() []LogEntry {
	var out []LogEntry
	for i := range l.shards {
		s := &l.shards[i]
		s.mu.Lock()
		out = append(out, s.entries...)
		s.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].QueryID < out[j].QueryID })
	return out
}

// shardedStats accumulates search statistics across stripes, merged on read.
type shardedStats struct {
	shards [numShards]struct {
		mu      sync.Mutex
		stats   search.Stats
		queries int
	}
}

// add merges one query's statistics into the stripe owned by its query ID.
func (s *shardedStats) add(queryID uint64, st search.Stats) {
	sh := &s.shards[queryID&(numShards-1)]
	sh.mu.Lock()
	sh.stats = sh.stats.Add(st)
	sh.queries++
	sh.mu.Unlock()
}

// total merges every stripe.
func (s *shardedStats) total() (search.Stats, int) {
	var st search.Stats
	queries := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		st = st.Add(sh.stats)
		queries += sh.queries
		sh.mu.Unlock()
	}
	return st, queries
}
