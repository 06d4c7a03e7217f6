package main

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"opaque/internal/protocol"
)

// sample is one generator call: a client request, or one streaming batch of
// direct-batch queries. Times are offsets from the start of the phase.
type sample struct {
	// intended is when the schedule said to send, sent when the generator
	// did. Latency runs from intended, so a late generator or a stalled
	// system cannot hide queueing. Closed loops have intended == sent.
	intended, sent, done time.Duration
	items                []int32 // pool indices, one per operation
	// outcomes holds the oracle's verdict on each operation's answer. Answers
	// are checked as they arrive (after done is taken) and then dropped, so
	// the generator's memory does not grow with what the system returns.
	outcomes []outcome
}

func (s *sample) latency() time.Duration { return s.done - s.intended }

// target is how a workload talks to its front door: send performs the
// operations for the drawn pool items in one call (id is unique per call)
// and check judges the reply, one outcome per item.
type target interface {
	send(conn *protocol.MuxClient, id uint64, items []int32) (any, error)
	check(items []int32, reply any, err error) []outcome
}

// generator drives one stack's front door.
type generator struct {
	conns []*protocol.MuxClient
	target
	// poolSize and perCall say how to draw a call's items.
	poolSize, perCall int
	tracer            *tracer
	nextID            *atomic.Uint64
}

func (g *generator) draw(rng *rand.Rand) []int32 {
	items := make([]int32, g.perCall)
	for i := range items {
		items[i] = int32(rng.Intn(g.poolSize))
	}
	return items
}

// do performs one call and fills in s.done and s.outcomes.
func (g *generator) do(conn int, s *sample, phaseStart time.Time) {
	id := g.nextID.Add(1)
	start := time.Now()
	reply, err := g.send(g.conns[conn%len(g.conns)], id, s.items)
	s.done = time.Since(phaseStart)
	if g.tracer.enabled() {
		g.tracer.record(spanCall, id, nil, start)
	}
	s.outcomes = g.check(s.items, reply, err)
}

// phase is what one generator phase observed.
type phase struct {
	samples []sample
	// wall is the measured time: the schedule length for an open loop, first
	// send to last completion for a closed one.
	wall time.Duration
	// backlog is the number of calls in flight when the schedule ended
	// (open loop only).
	backlog int
}

// runOpen sends calls on a Poisson schedule at rate calls per second for dur,
// one goroutine per call so the schedule never waits for a reply, then waits
// for every call to finish.
func (g *generator) runOpen(rate float64, dur time.Duration, rng *rand.Rand) phase {
	var sched []time.Duration
	for at := 0.0; ; {
		at += rng.ExpFloat64() / rate
		if at >= dur.Seconds() {
			break
		}
		sched = append(sched, time.Duration(at*float64(time.Second)))
	}
	samples := make([]sample, len(sched))
	for i := range samples {
		samples[i].intended = sched[i]
		samples[i].items = g.draw(rng)
	}
	var inFlight atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for i := range samples {
		s := &samples[i]
		if wait := s.intended - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		s.sent = time.Since(start)
		inFlight.Add(1)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g.do(i, s, start)
			inFlight.Add(-1)
		}(i)
	}
	if wait := dur - time.Since(start); wait > 0 {
		time.Sleep(wait)
	}
	backlog := int(inFlight.Load())
	wg.Wait()
	return phase{samples: samples, wall: dur, backlog: backlog}
}

// runClosed runs users concurrent callers, each sending its next call when
// the previous one returns, until stop says so. stop is consulted before
// every call with the number of calls started so far.
func (g *generator) runClosed(users int, seed int64, stop func(started int64, elapsed time.Duration) bool) phase {
	perUser := make([][]sample, users)
	var started atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for u := 0; u < users; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(u)))
			for !stop(started.Add(1)-1, time.Since(start)) {
				s := sample{items: g.draw(rng)}
				s.intended = time.Since(start)
				s.sent = s.intended
				g.do(u, &s, start)
				perUser[u] = append(perUser[u], s)
			}
		}(u)
	}
	wg.Wait()
	ph := phase{wall: time.Since(start)}
	for _, ss := range perUser {
		ph.samples = append(ph.samples, ss...)
	}
	return ph
}
