package obfuscate

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"opaque/internal/roadnet"
)

// Mode selects the obfuscated-path-query variant (Section III-C).
type Mode string

const (
	// Independent obfuscates every request into its own Q(Si, Ti).
	Independent Mode = "independent"
	// Shared merges the requests of each cluster into a single Q(S, T) whose
	// source set contains all members' true sources and whose destination
	// set contains all members' true destinations.
	Shared Mode = "shared"
)

// ClusterPolicy selects how a batch of requests is partitioned into disjoint
// query sets before obfuscation (the "path query clustering" step of
// Section IV).
type ClusterPolicy string

const (
	// ClusterSpatialGreedy groups requests whose sources and destinations
	// are mutually close, keeping the span of each shared query — and hence
	// its Lemma 1 cost — small. This is the default.
	ClusterSpatialGreedy ClusterPolicy = "spatial"
	// ClusterRandom groups requests arbitrarily in arrival order; the
	// ablation policy showing why clustering matters.
	ClusterRandom ClusterPolicy = "random"
	// ClusterNone puts every request in its own cluster; combined with the
	// Shared mode it degenerates to Independent.
	ClusterNone ClusterPolicy = "none"
)

// Config parameterises an Obfuscator.
type Config struct {
	Mode     Mode
	Cluster  ClusterPolicy
	Selector EndpointSelector
	// MaxClusterSize caps how many requests may share one obfuscated query
	// (0 = unlimited). Larger clusters amortise fake endpoints across more
	// users but widen the search span.
	MaxClusterSize int
	// MaxClusterSpan caps the Euclidean diameter of a cluster's endpoints as
	// a fraction of the network extent (0 = unlimited); only the spatial
	// policy honours it.
	MaxClusterSpan float64
	// MinFakesPerSide forces at least this many fake endpoints into each of
	// S and T even when the cluster's true endpoints already satisfy every
	// member's fS/fT. A shared query built purely from true endpoints is
	// fully exposed once every other member colludes (experiment E9); a
	// floor of fakes bounds what even an (k−1)-coalition can learn, at the
	// cost of a slightly larger search radius.
	MinFakesPerSide int
	// Seed drives tie-breaking randomisation such as member order shuffling.
	Seed uint64
}

// DefaultConfig returns a shared-mode obfuscator with spatial clustering and
// a ring-band selector sized for a 100 km network extent.
func DefaultConfig() Config {
	return Config{
		Mode:           Shared,
		Cluster:        ClusterSpatialGreedy,
		Selector:       MustNewRingBandSelector(2000, 15000, 11),
		MaxClusterSize: 8,
		MaxClusterSpan: 0.25,
		Seed:           11,
	}
}

// Obfuscator is the path query obfuscator component installed in the trusted
// obfuscator middlebox. It is not safe for concurrent use; the obfuscator
// service serialises batches.
type Obfuscator struct {
	g   *roadnet.Graph
	cfg Config
	rng *rngLike
}

// New builds an obfuscator over the simple road map g (the obfuscator's own
// map, without live traffic — Section IV).
func New(g *roadnet.Graph, cfg Config) (*Obfuscator, error) {
	if g == nil || g.NumNodes() == 0 {
		return nil, fmt.Errorf("obfuscate: obfuscator needs a non-empty road map")
	}
	if cfg.Selector == nil {
		return nil, fmt.Errorf("obfuscate: obfuscator needs an endpoint selector")
	}
	switch cfg.Mode {
	case Independent, Shared, "":
	default:
		return nil, fmt.Errorf("obfuscate: unknown mode %q", cfg.Mode)
	}
	switch cfg.Cluster {
	case ClusterSpatialGreedy, ClusterRandom, ClusterNone, "":
	default:
		return nil, fmt.Errorf("obfuscate: unknown cluster policy %q", cfg.Cluster)
	}
	if cfg.MaxClusterSize < 0 {
		return nil, fmt.Errorf("obfuscate: MaxClusterSize must be >= 0, got %d", cfg.MaxClusterSize)
	}
	if cfg.MinFakesPerSide < 0 {
		return nil, fmt.Errorf("obfuscate: MinFakesPerSide must be >= 0, got %d", cfg.MinFakesPerSide)
	}
	return &Obfuscator{g: g, cfg: cfg, rng: newSelectorRNG(cfg.Seed)}, nil
}

// MustNew is New but panics on error.
func MustNew(g *roadnet.Graph, cfg Config) *Obfuscator {
	o, err := New(g, cfg)
	if err != nil {
		panic(err)
	}
	return o
}

// Config returns the obfuscator's configuration.
func (o *Obfuscator) Config() Config { return o.cfg }

// Graph returns the obfuscator's road map.
func (o *Obfuscator) Graph() *roadnet.Graph { return o.g }

// Obfuscate turns a batch of requests into a Plan containing the obfuscated
// path queries for the server. The returned plan always satisfies
// Plan.Validate.
func (o *Obfuscator) Obfuscate(batch []Request) (Plan, error) {
	if len(batch) == 0 {
		return Plan{}, fmt.Errorf("obfuscate: empty batch")
	}
	for i, r := range batch {
		if err := r.Validate(o.g); err != nil {
			return Plan{}, fmt.Errorf("obfuscate: batch item %d: %w", i, err)
		}
	}
	plan := Plan{
		Requests:   append([]Request(nil), batch...),
		Assignment: make([]int, len(batch)),
	}
	mode := o.cfg.Mode
	if mode == "" {
		mode = Shared
	}
	switch mode {
	case Independent:
		for i, r := range batch {
			q, err := o.obfuscateGroup([]Request{r})
			if err != nil {
				return Plan{}, err
			}
			q.ID = len(plan.Queries)
			plan.Queries = append(plan.Queries, q)
			plan.Assignment[i] = q.ID
		}
	case Shared:
		clusters := o.clusterBatch(batch)
		for _, members := range clusters {
			group := make([]Request, len(members))
			for i, idx := range members {
				group[i] = batch[idx]
			}
			q, err := o.obfuscateGroup(group)
			if err != nil {
				return Plan{}, err
			}
			q.ID = len(plan.Queries)
			plan.Queries = append(plan.Queries, q)
			for _, idx := range members {
				plan.Assignment[idx] = q.ID
			}
		}
	}
	if err := plan.Validate(); err != nil {
		return Plan{}, fmt.Errorf("obfuscate: internal error: produced invalid plan: %w", err)
	}
	return plan, nil
}

// obfuscateGroup builds one obfuscated query covering all requests in group.
// The source set starts from the members' true sources and is padded with
// fakes up to the maximum fS demanded by any member; likewise for the
// destination set and fT.
func (o *Obfuscator) obfuscateGroup(group []Request) (ObfuscatedQuery, error) {
	if len(group) == 0 {
		return ObfuscatedQuery{}, fmt.Errorf("obfuscate: empty group")
	}
	srcSet := make(map[roadnet.NodeID]struct{})
	dstSet := make(map[roadnet.NodeID]struct{})
	needS, needT := 1, 1
	for _, r := range group {
		srcSet[r.Source] = struct{}{}
		dstSet[r.Dest] = struct{}{}
		if r.normalizedFS() > needS {
			needS = r.normalizedFS()
		}
		if r.normalizedFT() > needT {
			needT = r.normalizedFT()
		}
	}
	// Shared queries must satisfy |S| >= max fS and |T| >= max fT
	// (Section III-C); true endpoints of other members count toward the
	// quota, so fewer fakes are needed than in the independent case. A
	// configured fake floor raises the targets beyond the true endpoints so
	// collusion can never strip the sets bare.
	if o.cfg.MinFakesPerSide > 0 {
		if floor := len(srcSet) + o.cfg.MinFakesPerSide; floor > needS {
			needS = floor
		}
		if floor := len(dstSet) + o.cfg.MinFakesPerSide; floor > needT {
			needT = floor
		}
	}
	o.padWithFakes(srcSet, dstSet, group, needS, true)
	o.padWithFakes(dstSet, srcSet, group, needT, false)

	q := ObfuscatedQuery{
		Sources: setToShuffledSlice(srcSet, o.rng),
		Dests:   setToShuffledSlice(dstSet, o.rng),
		Members: append([]Request(nil), group...),
	}
	return q, nil
}

// padWithFakes grows target (the S or T set under construction) to at least
// need entries using the endpoint selector, anchoring fake selection at each
// member's true endpoint in turn so fakes are spread across the group's
// geography. other is the opposite set; its nodes are excluded so S and T
// stay disjoint (a node playing both roles would let the server rule pairs
// out).
func (o *Obfuscator) padWithFakes(target, other map[roadnet.NodeID]struct{}, group []Request, need int, isSource bool) {
	if len(target) >= need {
		return
	}
	exclude := make(map[roadnet.NodeID]struct{}, len(target)+len(other))
	for id := range target {
		exclude[id] = struct{}{}
	}
	for id := range other {
		exclude[id] = struct{}{}
	}
	anchor := 0
	for len(target) < need {
		r := group[anchor%len(group)]
		anchor++
		truth := r.Source
		if !isSource {
			truth = r.Dest
		}
		missing := need - len(target)
		fakes := o.cfg.Selector.SelectFakes(o.g, truth, missing, exclude)
		if len(fakes) == 0 {
			// The network cannot supply more distinct nodes; stop rather
			// than loop forever. Plan.Validate will report the shortfall
			// only if it violates a member's requirement, which can happen
			// solely on degenerate tiny graphs.
			return
		}
		for _, id := range fakes {
			if _, dup := target[id]; dup {
				continue
			}
			target[id] = struct{}{}
			exclude[id] = struct{}{}
			if len(target) >= need {
				break
			}
		}
	}
}

// clusterBatch partitions batch indices into clusters according to the
// configured policy.
func (o *Obfuscator) clusterBatch(batch []Request) [][]int {
	policy := o.cfg.Cluster
	if policy == "" {
		policy = ClusterSpatialGreedy
	}
	maxSize := o.cfg.MaxClusterSize
	if maxSize <= 0 {
		maxSize = len(batch)
	}
	switch policy {
	case ClusterNone:
		out := make([][]int, len(batch))
		for i := range batch {
			out[i] = []int{i}
		}
		return out
	case ClusterRandom:
		perm := make([]int, len(batch))
		for i := range perm {
			perm[i] = i
		}
		for i := len(perm) - 1; i > 0; i-- {
			j := o.rng.intn(i + 1)
			perm[i], perm[j] = perm[j], perm[i]
		}
		var out [][]int
		for start := 0; start < len(perm); start += maxSize {
			end := start + maxSize
			if end > len(perm) {
				end = len(perm)
			}
			out = append(out, append([]int(nil), perm[start:end]...))
		}
		return out
	default: // ClusterSpatialGreedy
		return o.spatialClusters(batch, maxSize)
	}
}

// spatialClusters greedily groups requests whose destinations are close. The
// cost of a shared query (Lemma 1) is Σ_{s∈S} max_{t∈T} ||s,t||²: each source
// grows its own spanning tree regardless of the other sources, so merging
// requests is cheap exactly when their destinations are mutually close (the
// max over T barely grows), while source proximity is irrelevant to the
// server cost. We therefore sort requests by destination coordinates and grow
// a cluster while its destination bounding box stays within MaxClusterSpan
// and the size cap allows.
func (o *Obfuscator) spatialClusters(batch []Request, maxSize int) [][]int {
	minX, minY, maxX, maxY := o.g.Bounds()
	extent := math.Max(maxX-minX, maxY-minY)
	if extent <= 0 {
		extent = 1
	}
	maxSpan := o.cfg.MaxClusterSpan * extent
	if o.cfg.MaxClusterSpan <= 0 {
		maxSpan = math.Inf(1)
	}
	type item struct {
		idx    int
		dx, dy float64
	}
	items := make([]item, len(batch))
	for i, r := range batch {
		d := o.g.Node(r.Dest)
		items[i] = item{idx: i, dx: d.X, dy: d.Y}
	}
	// Sort by a coarse grid cell (row-major) and then by x within the cell so
	// destinations that are close in the plane end up adjacent in the sweep.
	cell := maxSpan
	if math.IsInf(cell, 1) || cell <= 0 {
		cell = extent
	}
	slices.SortFunc(items, func(a, b item) int {
		return cmp.Or(
			cmp.Compare(int((a.dy-minY)/cell), int((b.dy-minY)/cell)),
			cmp.Compare(a.dx, b.dx),
			cmp.Compare(a.dy, b.dy),
			cmp.Compare(a.idx, b.idx),
		)
	})
	var out [][]int
	var cur []int
	var curMinX, curMinY, curMaxX, curMaxY float64
	flush := func() {
		if len(cur) > 0 {
			out = append(out, append([]int(nil), cur...))
		}
		cur = nil
	}
	for _, it := range items {
		if len(cur) == 0 {
			cur = []int{it.idx}
			curMinX, curMaxX, curMinY, curMaxY = it.dx, it.dx, it.dy, it.dy
			continue
		}
		nMinX := math.Min(curMinX, it.dx)
		nMaxX := math.Max(curMaxX, it.dx)
		nMinY := math.Min(curMinY, it.dy)
		nMaxY := math.Max(curMaxY, it.dy)
		span := math.Max(nMaxX-nMinX, nMaxY-nMinY)
		if len(cur) >= maxSize || span > maxSpan {
			flush()
			cur = []int{it.idx}
			curMinX, curMaxX, curMinY, curMaxY = it.dx, it.dx, it.dy, it.dy
			continue
		}
		cur = append(cur, it.idx)
		curMinX, curMaxX, curMinY, curMaxY = nMinX, nMaxX, nMinY, nMaxY
	}
	flush()
	return out
}

// setToShuffledSlice converts a node set to a slice in randomised order so
// that the position of true endpoints within S or T carries no information.
func setToShuffledSlice(set map[roadnet.NodeID]struct{}, rng *rngLike) []roadnet.NodeID {
	out := make([]roadnet.NodeID, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	// Sort first for determinism across map iteration order, then shuffle
	// with the seeded generator.
	slices.Sort(out)
	for i := len(out) - 1; i > 0; i-- {
		j := rng.intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}
