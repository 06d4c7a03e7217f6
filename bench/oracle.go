package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"

	"opaque/internal/protocol"
	"opaque/internal/roadnet"
	"opaque/internal/search"
	"opaque/internal/server"
	"opaque/internal/storage"
)

// The oracle defines "correct" for the benchmark: every path a client
// received must be a real walk from its s to its t whose cost equals
// search.ReferenceDijkstra on the metric it was answered under (checked as
// the answer arrives, after its completion time is taken), and every
// obfuscated query the shards logged must honour the paper's guarantee (true
// s ∈ S, t ∈ T, |S| ≥ fS, |T| ≥ fT, no user identifier; checked after each
// phase). A violation counts as a failed operation.

// outcome is the oracle's verdict on one operation's answer: err is nil for
// a verified answer, wrong marks an answer that arrived but was incorrect
// (as opposed to an operation that failed or was refused).
type outcome struct {
	err   error
	wrong bool
}

// pairPool is the set of true (s, t) pairs a run's client requests are drawn
// from, with the reference distance of each on the base metric. It is the
// target of every workload that goes through the obfuscator.
type pairPool struct {
	src, dst []roadnet.NodeID
	ref      []float64
	fs, ft   int
	// g is the base road map. hi is nil while weights stand still; while the
	// churn feed runs it is the feed's upper envelope (see checkPath). The
	// runner sets it between phases.
	g, hi *roadnet.Graph
}

// queryPool is the set of pre-obfuscated queries direct-batch sends, with
// the reference distance table of each (row-major, sources × dests). It is
// direct-batch's target.
type queryPool struct {
	sources, dests [][]roadnet.NodeID
	ref            [][]float64
	g              *roadnet.Graph
}

// parallelFor runs fn(i) for i in [0, n) on every core.
func parallelFor(n int, fn func(i int)) {
	workers := runtime.NumCPU()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				fn(i)
			}
		}(w)
	}
	wg.Wait()
}

// newPairPool draws n uniform pairs (s ≠ t) and computes their reference
// distances.
func newPairPool(g *roadnet.Graph, n, fs, ft int, rng *rand.Rand) (*pairPool, error) {
	p := &pairPool{src: make([]roadnet.NodeID, n), dst: make([]roadnet.NodeID, n), ref: make([]float64, n), fs: fs, ft: ft, g: g}
	for i := 0; i < n; i++ {
		for p.src[i] == p.dst[i] {
			p.src[i] = roadnet.NodeID(rng.Intn(g.NumNodes()))
			p.dst[i] = roadnet.NodeID(rng.Intn(g.NumNodes()))
		}
	}
	acc := storage.NewMemoryGraph(g)
	errs := make([]error, n)
	parallelFor(n, func(i int) {
		path, _, err := search.ReferenceDijkstra(acc, p.src[i], p.dst[i])
		if err == nil && path.Empty() {
			err = fmt.Errorf("pair %d→%d is unreachable", p.src[i], p.dst[i])
		}
		p.ref[i], errs[i] = path.Cost, err
	})
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("reference distances: %w", err)
		}
	}
	return p, nil
}

// newQueryPool draws direct-batch's pre-obfuscated queries: sources come
// from a fixed set of nodes scattered around a few hotspots (so consecutive
// queries reuse sources, which is what the server's tree cache feeds on),
// destinations are uniform. The hotspots belong to the map, not to the run:
// their centres come from mapSeed, because with only four of them their
// position decides how long the paths are, and a run-seeded choice made every
// cost metric swing by a fifth from seed to seed.
func newQueryPool(g *roadnet.Graph, rng *rand.Rand) (*queryPool, error) {
	minX, minY, maxX, maxY := g.Bounds()
	type centre struct{ x, y float64 }
	centres := make([]centre, directHotspots)
	mapRNG := rand.New(rand.NewSource(mapSeed))
	for i := range centres {
		centres[i] = centre{minX + mapRNG.Float64()*(maxX-minX), minY + mapRNG.Float64()*(maxY-minY)}
	}
	seen := map[roadnet.NodeID]bool{}
	var hot []roadnet.NodeID
	for len(hot) < directSourcePool {
		c := centres[rng.Intn(len(centres))]
		v := g.NearestNode(c.x+rng.NormFloat64()*directSpread*(maxX-minX), c.y+rng.NormFloat64()*directSpread*(maxY-minY))
		if v != roadnet.InvalidNode && !seen[v] {
			seen[v] = true
			hot = append(hot, v)
		}
	}
	p := &queryPool{
		g:       g,
		sources: make([][]roadnet.NodeID, directQueryPool),
		dests:   make([][]roadnet.NodeID, directQueryPool),
		ref:     make([][]float64, directQueryPool),
	}
	for i := range p.sources {
		for _, k := range rng.Perm(len(hot))[:directSide] {
			p.sources[i] = append(p.sources[i], hot[k])
		}
		for _, k := range rng.Perm(g.NumNodes())[:directSide] {
			p.dests[i] = append(p.dests[i], roadnet.NodeID(k))
		}
		p.ref[i] = make([]float64, directSide*directSide)
	}
	// One reference search per distinct source, to every destination that
	// source is paired with anywhere in the pool.
	type cell struct{ query, row int }
	var order []roadnet.NodeID
	uses := map[roadnet.NodeID][]cell{}
	for i, srcs := range p.sources {
		for si, v := range srcs {
			if uses[v] == nil {
				order = append(order, v)
			}
			uses[v] = append(uses[v], cell{i, si})
		}
	}
	acc := storage.NewMemoryGraph(g)
	errs := make([]error, len(order))
	parallelFor(len(order), func(k int) {
		v := order[k]
		var dests []roadnet.NodeID
		for _, c := range uses[v] {
			dests = append(dests, p.dests[c.query]...)
		}
		res, err := search.ReferenceSSMD(acc, v, dests)
		if err != nil {
			errs[k] = err
			return
		}
		for n, c := range uses[v] {
			for di := 0; di < directSide; di++ {
				d := math.Inf(1)
				if path := res.Paths[n*directSide+di]; !path.Empty() {
					d = path.Cost
				}
				p.ref[c.query][c.row*directSide+di] = d
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("reference tables: %w", err)
		}
	}
	return p, nil
}

// sameCost compares a served cost with a reference one. The engines add the
// same arc costs in different orders, so equality is up to rounding.
func sameCost(got, want float64) bool {
	return math.Abs(got-want) <= 1e-9*(1+math.Abs(want))
}

// walkCost returns the cost of nodes as a walk in g, and whether every step
// is an arc.
func walkCost(g *roadnet.Graph, nodes []roadnet.NodeID) (float64, bool) {
	total := 0.0
	for i := 0; i+1 < len(nodes); i++ {
		c, ok := g.ArcCost(nodes[i], nodes[i+1])
		if !ok {
			return 0, false
		}
		total += c
	}
	return total, true
}

// checkPath verifies one served path from s to t of claimed cost against the
// reference distance ref on base. When hi is nil the metric is base itself
// and the cost must equal ref; otherwise weights moved between base and hi
// (every arc of hi costs at least what it costs in base) while the query was
// served, and the cost must lie between the path's cost on the two metrics
// and be no less than ref.
func checkPath(base, hi *roadnet.Graph, s, t roadnet.NodeID, nodes []roadnet.NodeID, cost, ref float64) error {
	if len(nodes) == 0 || nodes[0] != s || nodes[len(nodes)-1] != t {
		return fmt.Errorf("path does not run %d→%d", s, t)
	}
	lo, ok := walkCost(base, nodes)
	if !ok {
		return fmt.Errorf("path %d→%d is not a walk in the road map", s, t)
	}
	if hi == nil {
		if !sameCost(cost, lo) {
			return fmt.Errorf("path %d→%d claims cost %v but its arcs sum to %v", s, t, cost, lo)
		}
		if !sameCost(cost, ref) {
			return fmt.Errorf("path %d→%d costs %v, reference distance is %v", s, t, cost, ref)
		}
		return nil
	}
	up, _ := walkCost(hi, nodes)
	slack := 1e-9 * (1 + math.Abs(cost))
	if cost < lo-slack || cost > up+slack || cost < ref-slack {
		return fmt.Errorf("path %d→%d costs %v, outside [%v, %v] or below reference %v", s, t, cost, lo, up, ref)
	}
	return nil
}

// send implements target: one client request ⟨u, (s,t), fS, fT⟩ to the
// obfuscator, every request under its own user id.
func (p *pairPool) send(conn *protocol.MuxClient, id uint64, items []int32) (any, error) {
	i := items[0]
	return conn.Do(protocol.ClientRequest{
		RequestID: id,
		User:      fmt.Sprintf("u%d", id),
		Source:    p.src[i],
		Dest:      p.dst[i],
		FS:        p.fs,
		FT:        p.ft,
	})
}

// check implements target.
func (p *pairPool) check(items []int32, reply any, err error) []outcome {
	i := items[0]
	rep, ok := reply.(protocol.ClientReply)
	switch {
	case err != nil:
		return []outcome{{err: err}}
	case !ok:
		return []outcome{{err: fmt.Errorf("unexpected reply type %T", reply)}}
	case rep.Error != "":
		return []outcome{{err: fmt.Errorf("obfuscator: %s", rep.Error)}}
	case !rep.Found:
		return []outcome{{err: fmt.Errorf("no path %d→%d on a connected map", p.src[i], p.dst[i]), wrong: true}}
	}
	if err := checkPath(p.g, p.hi, p.src[i], p.dst[i], rep.Path, rep.Cost, p.ref[i]); err != nil {
		return []outcome{{err: err, wrong: true}}
	}
	return []outcome{{}}
}

// send implements target: the items as one streaming batch of pre-obfuscated
// queries straight to a server.
func (p *queryPool) send(conn *protocol.MuxClient, id uint64, items []int32) (any, error) {
	b := protocol.BatchQuery{BatchID: id, Queries: make([]protocol.ServerQuery, len(items))}
	for k, i := range items {
		b.Queries[k] = protocol.ServerQuery{QueryID: id<<8 | uint64(k), Sources: p.sources[i], Dests: p.dests[i]}
	}
	return conn.DoBatch(b)
}

// check implements target: every candidate of every table.
func (p *queryPool) check(items []int32, reply any, err error) []outcome {
	out := make([]outcome, len(items))
	rep, _ := reply.(protocol.BatchReply)
	for k, i := range items {
		switch {
		case err != nil:
			out[k].err = err
		case rep.Errors[k] != "" || rep.Replies[k].Degraded:
			out[k].err = fmt.Errorf("server: query refused or degraded: %s", rep.Errors[k])
		default:
			if err := p.checkTable(i, rep.Replies[k].Paths); err != nil {
				out[k] = outcome{err: err, wrong: true}
			}
		}
	}
	return out
}

func (p *queryPool) checkTable(i int32, table []protocol.CandidatePath) error {
	if len(table) != directSide*directSide {
		return fmt.Errorf("table has %d candidates, want %d", len(table), directSide*directSide)
	}
	for c, cand := range table {
		s, t := p.sources[i][c/directSide], p.dests[i][c%directSide]
		ref := p.ref[i][c]
		if cand.Source != s || cand.Dest != t {
			return fmt.Errorf("candidate %d is (%d,%d), want (%d,%d)", c, cand.Source, cand.Dest, s, t)
		}
		if cand.Found == math.IsInf(ref, 1) {
			return fmt.Errorf("candidate %d→%d: found=%v disagrees with the reference", s, t, cand.Found)
		}
		if cand.Found {
			if err := checkPath(p.g, nil, s, t, cand.Nodes, cand.Cost, ref); err != nil {
				return err
			}
		}
	}
	return nil
}

// verdict is the oracle's count over one phase.
type verdict struct {
	attempted, failed int
	// wrong counts answers that arrived but were incorrect, and privacy the
	// requests no logged obfuscated query covers; either makes the run
	// incorrect, not merely lossy.
	wrong, privacy int
	firstErr       error
}

func (v *verdict) fail(err error) {
	v.failed++
	if v.firstErr == nil {
		v.firstErr = err
	}
}

// tally counts a phase's outcomes. cover, when non-nil, is the privacy check
// for the verified request at a pool index.
func tally(ph phase, cover func(i int32) error) verdict {
	var v verdict
	for k := range ph.samples {
		s := &ph.samples[k]
		for n, o := range s.outcomes {
			v.attempted++
			switch {
			case o.err != nil:
				if o.wrong {
					v.wrong++
				}
				v.fail(o.err)
			case cover != nil:
				if err := cover(s.items[n]); err != nil {
					v.privacy++
					v.fail(err)
				}
			}
		}
	}
	return v
}

// serverView is what the fleet as a whole learned from its query logs: one
// entry per obfuscated query, the source rows the router scattered over the
// shards joined back by QueryID.
type serverView struct {
	entries []viewEntry
	bySrc   map[roadnet.NodeID][]int
	// breachMean is the mean 1/(|S|·|T|) over the entries and leaked the
	// number of entries carrying anything besides endpoint sets.
	breachMean float64
	leaked     int
}

type viewEntry struct {
	srcs, dsts map[roadnet.NodeID]bool
}

func newServerView(shards []*server.Server) *serverView {
	byID := map[uint64]*viewEntry{}
	var order []uint64
	v := &serverView{bySrc: map[roadnet.NodeID][]int{}}
	for _, sh := range shards {
		for _, e := range sh.QueryLog() {
			if e.Profile != "" {
				v.leaked++ // the benchmark sends no profile; anything here came from elsewhere
			}
			ve := byID[e.QueryID]
			if ve == nil {
				ve = &viewEntry{srcs: map[roadnet.NodeID]bool{}, dsts: map[roadnet.NodeID]bool{}}
				byID[e.QueryID] = ve
				order = append(order, e.QueryID)
			}
			for _, s := range e.Sources {
				ve.srcs[s] = true
			}
			for _, d := range e.Dests {
				ve.dsts[d] = true
			}
		}
	}
	for _, id := range order {
		ve := byID[id]
		idx := len(v.entries)
		v.entries = append(v.entries, *ve)
		for s := range ve.srcs {
			v.bySrc[s] = append(v.bySrc[s], idx)
		}
		v.breachMean += 1 / float64(len(ve.srcs)*len(ve.dsts))
	}
	if len(v.entries) > 0 {
		v.breachMean /= float64(len(v.entries))
	}
	return v
}

// covers reports whether some logged query hides (s, t) at the asked
// protection.
func (v *serverView) covers(s, t roadnet.NodeID, fs, ft int) error {
	for _, idx := range v.bySrc[s] {
		e := v.entries[idx]
		if e.dsts[t] && len(e.srcs) >= fs && len(e.dsts) >= ft {
			return nil
		}
	}
	return fmt.Errorf("no logged query covers (%d,%d) with |S|≥%d, |T|≥%d", s, t, fs, ft)
}
