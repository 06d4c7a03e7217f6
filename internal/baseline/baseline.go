// Package baseline implements the existing location-privacy techniques the
// OPAQUE paper compares against in Section II / Figure 2, adapted to path
// queries:
//
//   - NoPrivacy     — submit the true Q(s, t) directly (Figure 2a).
//   - Landmark      — replace s and t with nearby landmarks and query the
//     substituted pair (Figure 2b); the result path does not connect the
//     true endpoints.
//   - Cloaking      — suppress address detail by snapping each endpoint to an
//     arbitrary node inside a cloaking region; the server picks a point for
//     the imprecise address (Figure 2c).
//   - NaiveDecoys   — mix the true query with k fully independent fake path
//     queries (Figure 2d, Duckham & Kulik style obfuscation); exact results,
//     but the server evaluates k+1 unrelated point-to-point queries.
//
// Each mechanism reports the same Outcome structure so experiment E1 can
// tabulate privacy (breach probability), result relevance (is the exact
// requested path returned?) and processing cost side by side with OPAQUE.
package baseline

import (
	"fmt"
	"math"

	"opaque/internal/obfuscate"
	"opaque/internal/protocol"
	"opaque/internal/roadnet"
	"opaque/internal/search"
)

// QueryExecutor matches obfsvc.QueryExecutor; redeclared here to keep the
// baselines importable without the obfuscator service.
type QueryExecutor interface {
	Execute(q protocol.ServerQuery) (protocol.ServerReply, error)
}

// Outcome describes what one mechanism achieved for one request.
type Outcome struct {
	Mechanism string
	// ExactPath reports whether the user obtained the exact shortest path
	// for its true (s, t) pair.
	ExactPath bool
	// ResultCost is the cost of the path actually returned to the user
	// (whatever pair it connects); +Inf when nothing was returned.
	ResultCost float64
	// TrueCost is the cost of the true shortest path P(s, t), for relevance
	// comparisons.
	TrueCost float64
	// BreachProbability is the probability the server identifies the true
	// (s, t) pair from what it received (Definition 2 semantics: 1 when the
	// pair is sent in the clear, 1/(k+1) style for decoys, 0 when the true
	// pair never reaches the server).
	BreachProbability float64
	// ServerSettledNodes and ServerPageFaults measure the processing cost
	// the mechanism imposed on the server for this request.
	ServerSettledNodes int
	ServerPageFaults   int64
	// CandidatePairs is how many (s, t) pairs the server evaluated.
	CandidatePairs int
}

// Mechanism evaluates one request under a privacy technique.
type Mechanism interface {
	Name() string
	// Run processes the user's true query through the mechanism and reports
	// the outcome. trueCost is supplied by the harness (computed once) so
	// mechanisms do not pay for it.
	Run(req obfuscate.Request, trueCost float64) (Outcome, error)
}

// execPair asks the server for a single (s, t) pair and returns its candidate
// path plus the reply's cost counters.
func execPair(exec QueryExecutor, s, t roadnet.NodeID) (search.Path, protocol.ServerReply, error) {
	reply, err := exec.Execute(protocol.ServerQuery{Sources: []roadnet.NodeID{s}, Dests: []roadnet.NodeID{t}})
	if err != nil {
		return search.Path{}, protocol.ServerReply{}, err
	}
	c, err := reply.Cell(0, 0)
	if err != nil {
		return search.Path{}, reply, fmt.Errorf("baseline: reading the server's reply: %w", err)
	}
	if c.Source != s || c.Dest != t {
		return search.Path{}, reply, fmt.Errorf("baseline: server reply missing pair (%d,%d)", s, t)
	}
	return c.Path(), reply, nil
}

// NoPrivacy submits the true query in the clear.
type NoPrivacy struct {
	Exec QueryExecutor
}

// Name implements Mechanism.
func (NoPrivacy) Name() string { return "none" }

// Run implements Mechanism.
func (m NoPrivacy) Run(req obfuscate.Request, trueCost float64) (Outcome, error) {
	p, reply, err := execPair(m.Exec, req.Source, req.Dest)
	if err != nil {
		return Outcome{}, err
	}
	out := Outcome{
		Mechanism:          m.Name(),
		ExactPath:          !p.Empty(),
		ResultCost:         pathCostOrInf(p),
		TrueCost:           trueCost,
		BreachProbability:  1,
		ServerSettledNodes: reply.SettledNodes,
		ServerPageFaults:   reply.PageFaults,
		CandidatePairs:     1,
	}
	return out, nil
}

// Landmark replaces both endpoints with landmarks at least MinShift away
// (Figure 2b): the server never sees the true pair, but the returned path is
// irrelevant to the user's trip.
type Landmark struct {
	Exec QueryExecutor
	// Graph is the client-side map used to pick landmarks.
	Graph *roadnet.Graph
	// MinShift and MaxShift bound how far (Euclidean) the landmark may be
	// from the true endpoint.
	MinShift float64
	MaxShift float64
	// Seed drives landmark selection.
	Seed uint64
}

// Name implements Mechanism.
func (Landmark) Name() string { return "landmark" }

// Run implements Mechanism.
func (m Landmark) Run(req obfuscate.Request, trueCost float64) (Outcome, error) {
	if m.Graph == nil {
		return Outcome{}, fmt.Errorf("baseline: landmark mechanism needs a graph")
	}
	sel := obfuscate.MustNewRingBandSelector(m.MinShift, m.MaxShift, m.Seed)
	exclude := map[roadnet.NodeID]struct{}{req.Dest: {}}
	sFakes := sel.SelectFakes(m.Graph, req.Source, 1, exclude)
	exclude[req.Source] = struct{}{}
	tFakes := sel.SelectFakes(m.Graph, req.Dest, 1, exclude)
	if len(sFakes) == 0 || len(tFakes) == 0 {
		return Outcome{}, fmt.Errorf("baseline: landmark selection failed (network too small for shift band [%v,%v])", m.MinShift, m.MaxShift)
	}
	p, reply, err := execPair(m.Exec, sFakes[0], tFakes[0])
	if err != nil {
		return Outcome{}, err
	}
	// The returned path answers the landmark pair, not the user's pair, so
	// it is never the exact requested path (unless the landmarks happen to
	// coincide with the truth, which selection forbids).
	return Outcome{
		Mechanism:          m.Name(),
		ExactPath:          false,
		ResultCost:         pathCostOrInf(p),
		TrueCost:           trueCost,
		BreachProbability:  0,
		ServerSettledNodes: reply.SettledNodes,
		ServerPageFaults:   reply.PageFaults,
		CandidatePairs:     1,
	}, nil
}

// Cloaking suppresses address detail: each endpoint is blurred to a cloaking
// region of radius CloakRadius and the server arbitrarily picks a node inside
// the region to answer (Figure 2c). The returned path is relevant only if the
// picked nodes happen to be the true ones.
type Cloaking struct {
	Exec  QueryExecutor
	Graph *roadnet.Graph
	// CloakRadius is the radius of the cloaked region around each true
	// endpoint.
	CloakRadius float64
	Seed        uint64
}

// Name implements Mechanism.
func (Cloaking) Name() string { return "cloaking" }

// Run implements Mechanism.
func (m Cloaking) Run(req obfuscate.Request, trueCost float64) (Outcome, error) {
	if m.Graph == nil {
		return Outcome{}, fmt.Errorf("baseline: cloaking mechanism needs a graph")
	}
	rng := newRNG(m.Seed ^ uint64(req.Source)<<20 ^ uint64(req.Dest))
	pickIn := func(center roadnet.NodeID) (roadnet.NodeID, int) {
		c := m.Graph.Node(center)
		region := m.Graph.NodesWithin(c.X, c.Y, m.CloakRadius)
		if len(region) == 0 {
			return center, 1
		}
		return region[rng.intn(len(region))], len(region)
	}
	s, sizeS := pickIn(req.Source)
	t, sizeT := pickIn(req.Dest)
	p, reply, err := execPair(m.Exec, s, t)
	if err != nil {
		return Outcome{}, err
	}
	return Outcome{
		Mechanism: m.Name(),
		// Exact only when the server's arbitrary picks are the true nodes.
		ExactPath:          s == req.Source && t == req.Dest && !p.Empty(),
		ResultCost:         pathCostOrInf(p),
		TrueCost:           trueCost,
		BreachProbability:  1 / float64(sizeS*sizeT),
		ServerSettledNodes: reply.SettledNodes,
		ServerPageFaults:   reply.PageFaults,
		CandidatePairs:     1,
	}, nil
}

// NaiveDecoys mixes the true query with Decoys fully independent fake
// (s, t) queries and submits them all (Figure 2d). The exact path is always
// retrieved and the breach probability is 1/(Decoys+1), but the server pays
// for Decoys+1 unrelated point-to-point searches.
type NaiveDecoys struct {
	Exec   QueryExecutor
	Graph  *roadnet.Graph
	Decoys int
	Seed   uint64
}

// Name implements Mechanism.
func (NaiveDecoys) Name() string { return "naive-decoys" }

// Run implements Mechanism.
func (m NaiveDecoys) Run(req obfuscate.Request, trueCost float64) (Outcome, error) {
	if m.Graph == nil {
		return Outcome{}, fmt.Errorf("baseline: naive decoy mechanism needs a graph")
	}
	decoys := m.Decoys
	if decoys < 0 {
		decoys = 0
	}
	sel := obfuscate.NewUniformSelector(m.Seed ^ 0xdecafbad)
	exclude := map[roadnet.NodeID]struct{}{req.Source: {}, req.Dest: {}}
	fakeSources := sel.SelectFakes(m.Graph, req.Source, decoys, exclude)
	for _, f := range fakeSources {
		exclude[f] = struct{}{}
	}
	fakeDests := sel.SelectFakes(m.Graph, req.Dest, decoys, exclude)

	out := Outcome{Mechanism: m.Name(), TrueCost: trueCost}
	// True pair first (submission order carries no meaning to the server in
	// this simulation; each pair is an independent query).
	p, reply, err := execPair(m.Exec, req.Source, req.Dest)
	if err != nil {
		return Outcome{}, err
	}
	out.ExactPath = !p.Empty()
	out.ResultCost = pathCostOrInf(p)
	out.ServerSettledNodes += reply.SettledNodes
	out.ServerPageFaults += reply.PageFaults
	out.CandidatePairs++
	for i := 0; i < decoys && i < len(fakeSources) && i < len(fakeDests); i++ {
		_, reply, err := execPair(m.Exec, fakeSources[i], fakeDests[i])
		if err != nil {
			return Outcome{}, err
		}
		out.ServerSettledNodes += reply.SettledNodes
		out.ServerPageFaults += reply.PageFaults
		out.CandidatePairs++
	}
	out.BreachProbability = 1 / float64(out.CandidatePairs)
	return out, nil
}

func pathCostOrInf(p search.Path) float64 {
	if p.Empty() {
		return math.Inf(1)
	}
	return p.Cost
}

// newRNG mirrors the deterministic generator used elsewhere; local copy keeps
// the package dependency-free.
type baselineRNG struct{ state uint64 }

func newRNG(seed uint64) *baselineRNG {
	if seed == 0 {
		seed = 0x2545f4914f6cdd1d
	}
	return &baselineRNG{state: seed}
}

func (r *baselineRNG) intn(n int) int {
	if n <= 0 {
		panic("baseline: intn with non-positive n")
	}
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int((z ^ (z >> 31)) % uint64(n))
}
