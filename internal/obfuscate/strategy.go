package obfuscate

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"opaque/internal/roadnet"
)

// EndpointSelector picks fake endpoint nodes to mix with a true endpoint. The
// selection requires knowledge of the underlying road network; the obfuscator
// keeps a simple map for exactly this purpose (Section IV of the paper).
//
// Implementations must not return the true node or nodes already in exclude,
// and should return fewer than count nodes only when the network genuinely
// cannot supply enough distinct candidates. The returned slice belongs to the
// caller. The selectors of this package carry a seeded generator (and the
// ring band a reused enumeration buffer), so one selector is not safe for
// concurrent use.
type EndpointSelector interface {
	// SelectFakes returns up to count fake endpoints for the given true
	// endpoint.
	SelectFakes(g *roadnet.Graph, truth roadnet.NodeID, count int, exclude map[roadnet.NodeID]struct{}) []roadnet.NodeID
	// Name identifies the strategy in reports.
	Name() string
}

// rngLike is the minimal deterministic random source the selectors need.
// A tiny local SplitMix64 keeps the package free of a dependency on
// internal/gen while remaining reproducible.
type rngLike struct{ state uint64 }

func newSelectorRNG(seed uint64) *rngLike {
	if seed == 0 {
		seed = 0x853c49e6748fea9b
	}
	return &rngLike{state: seed}
}

func (r *rngLike) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rngLike) intn(n int) int {
	if n <= 0 {
		panic("obfuscate: intn with non-positive n")
	}
	return int(r.next() % uint64(n))
}

func (r *rngLike) float64() float64 { return float64(r.next()>>11) / (1 << 53) }

// UniformSelector picks fake endpoints uniformly at random from the whole
// network. Maximum endpoint diversity, but fake endpoints may be very far
// from the true one, which inflates the Lemma 1 radius max_t ||s,t|| and thus
// the processing cost (experiment E8 quantifies this).
type UniformSelector struct {
	rng *rngLike
}

// NewUniformSelector builds a uniform selector with the given seed.
func NewUniformSelector(seed uint64) *UniformSelector {
	return &UniformSelector{rng: newSelectorRNG(seed)}
}

// Name implements EndpointSelector.
func (u *UniformSelector) Name() string { return "uniform" }

// SelectFakes implements EndpointSelector. The truth, exclude and the fakes
// already drawn are checked in place; count is small, so a draw's duplicate
// check is a scan of the output.
func (u *UniformSelector) SelectFakes(g *roadnet.Graph, truth roadnet.NodeID, count int, exclude map[roadnet.NodeID]struct{}) []roadnet.NodeID {
	n := g.NumNodes()
	out := make([]roadnet.NodeID, 0, count)
	taken := func(id roadnet.NodeID) bool {
		if _, skip := exclude[id]; skip {
			return true
		}
		return id == truth || slices.Contains(out, id)
	}
	// Rejection sampling with a cap proportional to the need; on tiny graphs
	// fall back to a scan.
	maxAttempts := 50 * (count + 1)
	for attempts := 0; len(out) < count && attempts < maxAttempts; attempts++ {
		if id := roadnet.NodeID(u.rng.intn(n)); !taken(id) {
			out = append(out, id)
		}
	}
	for id := roadnet.NodeID(0); int(id) < n && len(out) < count; id++ {
		if !taken(id) {
			out = append(out, id)
		}
	}
	return out
}

// RingBandSelector picks fake endpoints from an annulus around the true
// endpoint: at least MinRadius away (so fakes are not trivially equivalent to
// the truth) and at most MaxRadius away (so the obfuscated query's search
// radius — and hence the Lemma 1 cost — stays bounded). This is the
// cost-aware strategy OPAQUE's design motivates.
type RingBandSelector struct {
	// MinRadius and MaxRadius bound the Euclidean distance between the true
	// endpoint and its fakes, in the network's coordinate units.
	MinRadius float64
	MaxRadius float64
	rng       *rngLike
	band      []roadnet.NodeID // enumeration buffer reused across calls
}

// NewRingBandSelector builds a ring-band selector. MaxRadius must exceed
// MinRadius ≥ 0.
func NewRingBandSelector(minRadius, maxRadius float64, seed uint64) (*RingBandSelector, error) {
	if minRadius < 0 || maxRadius <= minRadius {
		return nil, fmt.Errorf("obfuscate: ring band needs 0 <= min < max, got [%v, %v]", minRadius, maxRadius)
	}
	return &RingBandSelector{MinRadius: minRadius, MaxRadius: maxRadius, rng: newSelectorRNG(seed)}, nil
}

// MustNewRingBandSelector is NewRingBandSelector but panics on error.
func MustNewRingBandSelector(minRadius, maxRadius float64, seed uint64) *RingBandSelector {
	s, err := NewRingBandSelector(minRadius, maxRadius, seed)
	if err != nil {
		panic(err)
	}
	return s
}

// Name implements EndpointSelector.
func (s *RingBandSelector) Name() string { return "ringband" }

// SelectFakes implements EndpointSelector: a uniform sample of the band
// around the truth minus the truth and exclude. It costs one unsorted
// enumeration of the band plus one draw per fake and per rejected node —
// nothing orders the band or filters it up front (drawExcluding).
func (s *RingBandSelector) SelectFakes(g *roadnet.Graph, truth roadnet.NodeID, count int, exclude map[roadnet.NodeID]struct{}) []roadnet.NodeID {
	t := g.Node(truth)
	s.band = g.NodesInBand(s.band[:0], t.X, t.Y, s.MinRadius, s.MaxRadius)
	// Widen the band progressively if the annulus is too sparse.
	widen := s.MaxRadius
	for len(s.band) < count+len(exclude)+1 && widen < 64*s.MaxRadius {
		widen *= 2
		s.band = g.NodesInBand(s.band[:0], t.X, t.Y, s.MinRadius, widen)
	}
	return drawExcluding(s.band, truth, count, exclude, s.rng)
}

// DensityAwareSelector picks fake endpoints with probability proportional to
// their association weight (node popularity) within a radius around the true
// endpoint. Popular nodes are plausible destinations — an adversary who
// discounts implausible endpoints gains less, at a modest cost increase
// relative to the plain ring band (experiment E8).
type DensityAwareSelector struct {
	Radius float64
	rng    *rngLike
}

// NewDensityAwareSelector builds a density-aware selector restricted to the
// given radius around the true endpoint.
func NewDensityAwareSelector(radius float64, seed uint64) (*DensityAwareSelector, error) {
	if radius <= 0 {
		return nil, fmt.Errorf("obfuscate: density-aware selector needs positive radius, got %v", radius)
	}
	return &DensityAwareSelector{Radius: radius, rng: newSelectorRNG(seed)}, nil
}

// MustNewDensityAwareSelector is NewDensityAwareSelector but panics on error.
func MustNewDensityAwareSelector(radius float64, seed uint64) *DensityAwareSelector {
	s, err := NewDensityAwareSelector(radius, seed)
	if err != nil {
		panic(err)
	}
	return s
}

// Name implements EndpointSelector.
func (s *DensityAwareSelector) Name() string { return "density" }

// SelectFakes implements EndpointSelector.
func (s *DensityAwareSelector) SelectFakes(g *roadnet.Graph, truth roadnet.NodeID, count int, exclude map[roadnet.NodeID]struct{}) []roadnet.NodeID {
	t := g.Node(truth)
	radius := s.Radius
	disc := g.NodesInBand(nil, t.X, t.Y, 0, radius)
	for len(disc) < count+len(exclude)+1 && radius < 64*s.Radius {
		radius *= 2
		disc = g.NodesInBand(disc[:0], t.X, t.Y, 0, radius)
	}
	// Weighted sampling without replacement by exponential sort keys
	// (Efraimidis–Spirakis): key = u^(1/w); take the largest keys.
	type keyed struct {
		id  roadnet.NodeID
		key float64
	}
	pool := make([]keyed, 0, len(disc))
	for _, id := range disc {
		if id == truth {
			continue
		}
		if _, skip := exclude[id]; skip {
			continue
		}
		w := g.Node(id).Weight
		if w <= 0 {
			w = 1e-6
		}
		u := s.rng.float64()
		if u == 0 {
			u = 1e-12
		}
		pool = append(pool, keyed{id: id, key: math.Pow(u, 1/w)})
	}
	// Larger key first, lower id on equal keys.
	slices.SortFunc(pool, func(a, b keyed) int {
		return cmp.Or(cmp.Compare(b.key, a.key), cmp.Compare(a.id, b.id))
	})
	out := make([]roadnet.NodeID, min(count, len(pool)))
	for i := range out {
		out[i] = pool[i].id
	}
	return out
}

// drawExcluding returns min(count, |pool∖exclude∖{truth}|) distinct members
// of pool drawn uniformly without replacement, in draw order, in a slice the
// caller owns; pool is scratch and is overwritten. It is a partial
// Fisher–Yates shuffle (Knuth, TAOCP Vol. 2, Algorithm P) that rejects
// lazily: each step draws uniformly from the live prefix of pool and retires
// the drawn member by moving the prefix's last member into its slot. Only
// drawn members are checked against the truth and exclude, so a call costs
// one step per fake plus one per excluded member it happens to draw, not a
// pass over pool. Retiring rejected members keeps every acceptable member
// not yet drawn in the live prefix, so each accepted draw is uniform over
// exactly those.
func drawExcluding(pool []roadnet.NodeID, truth roadnet.NodeID, count int, exclude map[roadnet.NodeID]struct{}, rng *rngLike) []roadnet.NodeID {
	out := make([]roadnet.NodeID, 0, min(count, len(pool)))
	for live := len(pool); len(out) < count && live > 0; live-- {
		j := rng.intn(live)
		id := pool[j]
		pool[j] = pool[live-1]
		if id == truth {
			continue
		}
		if _, skip := exclude[id]; skip {
			continue
		}
		out = append(out, id)
	}
	return out
}
