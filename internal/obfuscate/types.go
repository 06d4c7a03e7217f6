// Package obfuscate implements the path query obfuscator of the OPAQUE
// system (Section III and IV of the paper): it turns true path queries
// Q(s, t) into obfuscated path queries Q(S, T) with s ∈ S and t ∈ T, either
// independently (one Q(Si, Ti) per user) or shared (several users' true
// endpoints merged into one Q(S, T)), and quantifies the resulting privacy
// protection via the breach probability of Definition 2.
package obfuscate

import (
	"fmt"

	"opaque/internal/roadnet"
)

// UserID identifies a client of the obfuscator.
type UserID string

// Request is the message a client sends to the obfuscator over the secure
// channel: its true path query and the desired obfuscation power
// ⟨u, (s, t), fS, fT⟩ (Section IV, Figure 6).
type Request struct {
	User   UserID
	Source roadnet.NodeID
	Dest   roadnet.NodeID
	// FS and FT are the user's desired sizes of the source and destination
	// sets of the obfuscated query (fS and fT in the paper). Values below 1
	// are treated as 1 (no obfuscation on that side).
	FS int
	FT int
}

// Validate checks the request against the graph it will be evaluated on.
func (r Request) Validate(g *roadnet.Graph) error {
	if r.User == "" {
		return fmt.Errorf("obfuscate: request has empty user id")
	}
	if !g.ValidNode(r.Source) {
		return fmt.Errorf("obfuscate: request %q has invalid source %d", r.User, r.Source)
	}
	if !g.ValidNode(r.Dest) {
		return fmt.Errorf("obfuscate: request %q has invalid destination %d", r.User, r.Dest)
	}
	if r.Source == r.Dest {
		return fmt.Errorf("obfuscate: request %q has identical source and destination %d", r.User, r.Source)
	}
	if r.FS < 0 || r.FT < 0 {
		return fmt.Errorf("obfuscate: request %q has negative protection setting (fS=%d, fT=%d)", r.User, r.FS, r.FT)
	}
	return nil
}

// normalizedFS returns fS clamped to at least 1.
func (r Request) normalizedFS() int {
	if r.FS < 1 {
		return 1
	}
	return r.FS
}

// normalizedFT returns fT clamped to at least 1.
func (r Request) normalizedFT() int {
	if r.FT < 1 {
		return 1
	}
	return r.FT
}

// ObfuscatedQuery is one obfuscated path query Q(S, T) as sent to the
// directions search server. Only S and T leave the obfuscator; Members is the
// obfuscator-side record of which true requests it protects and is used by
// the candidate result path filter.
type ObfuscatedQuery struct {
	// ID distinguishes queries within one batch.
	ID int
	// Sources is the source set S; Dests is the destination set T. Both are
	// deduplicated and order-randomised so position leaks nothing.
	Sources []roadnet.NodeID
	Dests   []roadnet.NodeID
	// Members are the true requests hidden inside this query.
	Members []Request
}

// BreachProbability returns the probability 1/(|S|·|T|) that an adversary
// holding only the obfuscated query identifies the true (s, t) pair of one
// member by guessing uniformly (Definition 2 of the paper).
func (q ObfuscatedQuery) BreachProbability() float64 {
	return BreachProbability(len(q.Sources), len(q.Dests))
}

// ContainsPair reports whether (s, t) ∈ S×T.
func (q ObfuscatedQuery) ContainsPair(s, t roadnet.NodeID) bool {
	return containsNode(q.Sources, s) && containsNode(q.Dests, t)
}

// Covers reports whether the query hides the given request: its true source
// is in S and its true destination is in T.
func (q ObfuscatedQuery) Covers(r Request) bool {
	return q.ContainsPair(r.Source, r.Dest)
}

// NumCandidatePairs returns |S|·|T|, the number of path queries the server
// evaluates for this obfuscated query.
func (q ObfuscatedQuery) NumCandidatePairs() int { return len(q.Sources) * len(q.Dests) }

// String summarises the query without exposing member identities.
func (q ObfuscatedQuery) String() string {
	return fmt.Sprintf("Q(|S|=%d, |T|=%d, members=%d, breach=%.4f)", len(q.Sources), len(q.Dests), len(q.Members), q.BreachProbability())
}

// BreachProbability is Definition 2: the probability that a specific true
// path query is revealed from an obfuscated query with |S| = sizeS and
// |T| = sizeT, i.e. 1/(|S|·|T|). Sizes below 1 are clamped to 1.
func BreachProbability(sizeS, sizeT int) float64 {
	if sizeS < 1 {
		sizeS = 1
	}
	if sizeT < 1 {
		sizeT = 1
	}
	return 1 / (float64(sizeS) * float64(sizeT))
}

// Plan is the output of obfuscating one batch of requests: the obfuscated
// queries to send to the server plus bookkeeping that stays in the
// obfuscator.
type Plan struct {
	Queries []ObfuscatedQuery
	// Assignment maps each request (by batch index) to the query that covers
	// it.
	Assignment map[int]int
	// Requests is the batch, in the order received.
	Requests []Request
}

// TotalCandidatePairs returns the total number of (s, t) pairs the server
// will evaluate across all queries of the plan — the plan's processing-load
// proxy before the Lemma 1 model is applied.
func (p Plan) TotalCandidatePairs() int {
	total := 0
	for _, q := range p.Queries {
		total += q.NumCandidatePairs()
	}
	return total
}

// QueryFor returns the obfuscated query covering the i-th request of the
// batch.
func (p Plan) QueryFor(i int) (ObfuscatedQuery, bool) {
	qi, ok := p.Assignment[i]
	if !ok || qi < 0 || qi >= len(p.Queries) {
		return ObfuscatedQuery{}, false
	}
	return p.Queries[qi], true
}

// Validate checks the structural invariants the rest of the system relies
// on: every request is assigned to exactly one query, that query covers it,
// and the query's S/T sizes are at least the request's fS/fT.
func (p Plan) Validate() error {
	if len(p.Assignment) != len(p.Requests) {
		return fmt.Errorf("obfuscate: plan assigns %d of %d requests", len(p.Assignment), len(p.Requests))
	}
	for i, r := range p.Requests {
		q, ok := p.QueryFor(i)
		if !ok {
			return fmt.Errorf("obfuscate: request %d (%q) has no covering query", i, r.User)
		}
		if !q.Covers(r) {
			return fmt.Errorf("obfuscate: query %d does not cover request %d (%q): s=%d t=%d S=%v T=%v", q.ID, i, r.User, r.Source, r.Dest, q.Sources, q.Dests)
		}
		if len(q.Sources) < r.normalizedFS() {
			return fmt.Errorf("obfuscate: query %d has |S|=%d < fS=%d for request %q", q.ID, len(q.Sources), r.normalizedFS(), r.User)
		}
		if len(q.Dests) < r.normalizedFT() {
			return fmt.Errorf("obfuscate: query %d has |T|=%d < fT=%d for request %q", q.ID, len(q.Dests), r.normalizedFT(), r.User)
		}
	}
	return nil
}

func containsNode(ids []roadnet.NodeID, id roadnet.NodeID) bool {
	for _, v := range ids {
		if v == id {
			return true
		}
	}
	return false
}
