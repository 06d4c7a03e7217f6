package main

import (
	"fmt"
	"math/rand"
	"time"

	"opaque/internal/fleet"
	"opaque/internal/roadnet"
	"opaque/internal/server"
)

// churnFeed is churn-open's writer: a fixed arc set whose costs it toggles
// between the base metric and churnFactor times it through
// Router.UpdateWeights. Half the arcs lie inside one partition cell (so
// cell-local re-customization has something local to do) and half are
// scattered over the map. The arc set belongs to the map, not to the run: it
// is drawn from mapSeed, because which cells it touches decides how much
// re-customization every batch costs.
type churnFeed struct {
	base, high []roadnet.ArcWeightChange
	// hi is the base map with every fed arc at its high cost: the upper
	// envelope of every metric the shards can serve under while the feed runs.
	hi *roadnet.Graph
}

func newChurnFeed(g *roadnet.Graph, part *roadnet.Partition) (*churnFeed, error) {
	rng := rand.New(rand.NewSource(mapSeed))
	type pair struct{ from, to roadnet.NodeID }
	seen := map[pair]bool{}
	f := &churnFeed{}
	add := func(from, to roadnet.NodeID) {
		if from == to || seen[pair{from, to}] {
			return
		}
		cost, ok := g.ArcCost(from, to)
		if !ok {
			return
		}
		seen[pair{from, to}] = true
		f.base = append(f.base, roadnet.ArcWeightChange{From: from, To: to, NewCost: cost})
		f.high = append(f.high, roadnet.ArcWeightChange{From: from, To: to, NewCost: cost * churnFactor})
	}
	cell := part.CellNodes(rng.Intn(part.NumCells()))
	for tries := 0; len(f.base) < churnArcs/2 && tries < 100*churnArcs; tries++ {
		u := cell[rng.Intn(len(cell))]
		arcs := g.Arcs(u)
		if len(arcs) == 0 || part.IsBoundary(u) {
			continue
		}
		if a := arcs[rng.Intn(len(arcs))]; !part.IsBoundary(a.To) && part.CellOf(a.To) == part.CellOf(u) {
			add(u, a.To)
		}
	}
	for tries := 0; len(f.base) < churnArcs && tries < 100*churnArcs; tries++ {
		u := roadnet.NodeID(rng.Intn(g.NumNodes()))
		if arcs := g.Arcs(u); len(arcs) > 0 {
			add(u, arcs[rng.Intn(len(arcs))].To)
		}
	}
	if len(f.base) < churnArcs {
		return nil, fmt.Errorf("churn feed found only %d of %d arcs", len(f.base), churnArcs)
	}
	hi, err := g.WithUpdatedWeights(f.high)
	if err != nil {
		return nil, err
	}
	f.hi = hi
	return f, nil
}

// batch returns the n-th batch of the feed: high costs first, then base and
// high alternating.
func (f *churnFeed) batch(n int) []roadnet.ArcWeightChange {
	if n%2 == 0 {
		return f.high
	}
	return f.base
}

// run sends one batch every churnInterval, high and base alternating, until
// stop closes, and returns the latency of every UpdateWeights call.
func (f *churnFeed) run(router *fleet.Router, stop <-chan struct{}) ([]time.Duration, error) {
	var acks []time.Duration
	tick := time.NewTicker(churnInterval)
	defer tick.Stop()
	for n := 0; ; n++ {
		select {
		case <-stop:
			return acks, nil
		case <-tick.C:
		}
		start := time.Now()
		if err := router.UpdateWeights(f.batch(n)); err != nil {
			return acks, fmt.Errorf("weight update %d: %w", n, err)
		}
		acks = append(acks, time.Since(start))
	}
}

// quiesce returns the fleet to the base metric and waits until every shard
// has applied every update the router was given (sent counts them) and its
// overlay is fresh again.
func (f *churnFeed) quiesce(router *fleet.Router, shards []*server.Server, sent int64) error {
	if err := router.UpdateWeights(f.base); err != nil {
		return fmt.Errorf("restoring base weights: %w", err)
	}
	sent++
	deadline := time.Now().Add(10 * time.Second)
	for _, sh := range shards {
		// UpdateWeights returns at its ack quorum; the rest of the broadcast
		// completes in the background.
		for sh.Metrics().Counter("weight_updates") < sent {
			if time.Now().After(deadline) {
				return fmt.Errorf("a shard applied %d of %d weight updates", sh.Metrics().Counter("weight_updates"), sent)
			}
			time.Sleep(5 * time.Millisecond)
		}
		if err := sh.RecustomizeNow(); err != nil {
			return err
		}
	}
	return nil
}
