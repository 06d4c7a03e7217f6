package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"syscall"
	"time"

	"opaque/internal/obfsvc"
)

// options are the knobs of one benchmark invocation.
type options struct {
	seed    uint64
	seconds float64
	nodes   int
	trace   bool
	// setups is how many times the stack is set up; setup_s is the median.
	setups int
	// out, when set, is a directory the traced pass writes its spans to.
	out string
	// calibrate replaces the workload's loop with a closed loop of many
	// pipelined users, to find the capacity the open-loop rates derive from.
	calibrate bool
	// rate, when positive, overrides an open-loop workload's committed rate;
	// like calibrate it exists for choosing the constants, not for measuring.
	rate float64
	// wrapExecutor is the smoke test's stall-injection seam.
	wrapExecutor func(obfsvc.BatchExecutor) obfsvc.BatchExecutor
}

// calibrateUsers is the closed-loop user count of -calibrate: enough
// pipelined requests to fill every batching window and keep both cores busy.
const calibrateUsers = 128

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// phaseCount is the sent/succeeded/failed record of one generator phase.
type phaseCount struct {
	Phase     string `json:"phase"`
	Sent      int    `json:"sent"`
	Succeeded int    `json:"succeeded"`
	Failed    int    `json:"failed"`
}

// result is what one workload run reports. The first four fields are the
// benchmark contract's result line; the rest is provenance.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`

	workload string
	loop     string
	phases   []phaseCount
	firstErr error
}

// runner is one workload run in progress.
type runner struct {
	opt    options
	w      *workload
	st     *stack
	gen    *generator
	tracer *tracer
	rng    *rand.Rand
	nextID atomic.Uint64

	pairs   *pairPool
	queries *queryPool
	feed    *churnFeed
	// updatesSent counts the weight-update batches given to the router.
	updatesSent int64

	res result
}

// slices is how many equal parts a measured window is cut into. Every
// end-to-end metric is computed per slice and reported as the median over the
// slices, so a burst of interference from outside the process spoils one
// slice instead of the run.
const slices = 10

// reading is the process-wide meters at one instant of a window.
type reading struct {
	at      time.Duration // since the window's start
	cpu     time.Duration
	mallocs uint64
	wire    int64
}

func (r *runner) read(start time.Time) reading {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return reading{at: time.Since(start), cpu: cpuTime(), mallocs: ms.Mallocs, wire: r.st.wire.total()}
}

// window is everything observed across one measured generator phase.
type window struct {
	ph phase
	// readings are the meters at the window's start, at every slice boundary
	// and after the last call returned: slices+1 of them.
	readings []reading
	acks     []time.Duration
	delta    counters
	verdict  verdict
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runWorkload sets the stack up, drives it, verifies every answer and
// returns the metrics: the end-to-end set with tracing off, or the per-layer
// set from a traced pass.
func runWorkload(w *workload, opt options) (*result, error) {
	r := &runner{opt: opt, w: w, rng: rand.New(rand.NewSource(int64(opt.seed)))}
	r.res = result{Correct: true, Metrics: map[string]value{}, workload: w.name}
	if opt.trace {
		r.tracer = newTracer()
	}

	// Set-up, repeated: every repetition builds the whole stack and answers
	// the warm-up operations; all but the last are torn down again. The
	// oracle's reference answers are not the system's work and are computed
	// outside the timed part.
	var setups []float64
	for i := 0; i < opt.setups; i++ {
		if r.st != nil {
			r.st.close()
			r.st = nil
			runtime.GC()
		}
		start := time.Now()
		st, err := buildStack(stackConfig{w: w, nodes: opt.nodes, seed: opt.seed, tracer: r.tracer, wrapExecutor: opt.wrapExecutor})
		if err != nil {
			return nil, err
		}
		r.st = st
		built := time.Since(start)
		if r.gen == nil {
			if err := r.prepare(); err != nil {
				st.close()
				return nil, err
			}
		}
		r.gen.conns = st.conns
		start = time.Now()
		warm := r.gen.runClosed(2*len(st.conns), int64(opt.seed)+int64(i)<<32, func(started int64, _ time.Duration) bool {
			return started >= int64(w.warmOps/r.gen.perCall)
		})
		setups = append(setups, (built + time.Since(start)).Seconds())
		if v := r.check("warm-up", warm); v.failed > 0 {
			st.close()
			return nil, fmt.Errorf("warm-up: %d of %d operations failed: %w", v.failed, v.attempted, v.firstErr)
		}
	}
	defer func() { r.st.close() }()
	runtime.GC()

	dur := time.Duration(opt.seconds * float64(time.Second))
	var err error
	if opt.trace {
		err = r.tracedRun(dur)
	} else {
		err = r.plainRun(dur, median(setups))
	}
	if err != nil {
		return nil, err
	}
	return &r.res, nil
}

// prepare draws the run's inputs from the seed and computes the oracle's
// reference answers for them.
func (r *runner) prepare() error {
	g := r.st.g
	r.gen = &generator{tracer: r.tracer, nextID: &r.nextID, perCall: 1}
	var err error
	if r.w.direct {
		if r.queries, err = newQueryPool(g, r.rng); err != nil {
			return err
		}
		r.gen.target, r.gen.poolSize, r.gen.perCall = r.queries, directQueryPool, directBatch
		return nil
	}
	if r.pairs, err = newPairPool(g, pairPoolSize, r.w.fs, r.w.ft, r.rng); err != nil {
		return err
	}
	r.gen.target, r.gen.poolSize = r.pairs, pairPoolSize
	if r.w.churn {
		r.feed, err = newChurnFeed(g, r.st.part)
	}
	return err
}

// check counts the oracle's outcomes over one phase, adds the privacy check
// of the shards' query logs, records the counts and folds them into the
// result.
func (r *runner) check(name string, ph phase) verdict {
	var v verdict
	if r.w.direct {
		v = tally(ph, nil)
	} else {
		view := newServerView(r.st.shards)
		v = tally(ph, func(i int32) error { return view.covers(r.pairs.src[i], r.pairs.dst[i], r.w.fs, r.w.ft) })
		if view.leaked > 0 {
			v.privacy += view.leaked
			v.fail(fmt.Errorf("%d logged queries carry more than endpoint sets", view.leaked))
		}
	}
	r.res.phases = append(r.res.phases, phaseCount{Phase: name, Sent: v.attempted, Succeeded: v.attempted - v.failed, Failed: v.failed})
	if name != "warm-up" {
		r.res.Attempted += v.attempted
		r.res.Failed += v.failed
		if v.wrong+v.privacy > 0 {
			r.res.Correct = false
		}
		if r.res.firstErr == nil {
			r.res.firstErr = v.firstErr
		}
	}
	return v
}

// rate is the open-loop rate of the workload's own traffic.
func (r *runner) rate() float64 {
	if r.opt.rate > 0 {
		return r.opt.rate
	}
	return r.w.rate
}

// loop runs the workload's own traffic shape for dur.
func (r *runner) loop(dur time.Duration, rate float64) phase {
	seed := r.rng.Int63()
	until := func(_ int64, elapsed time.Duration) bool { return elapsed >= dur }
	var shape string
	var ph phase
	switch {
	case r.opt.calibrate:
		shape = fmt.Sprintf("closed, %d users (calibration)", calibrateUsers)
		ph = r.gen.runClosed(calibrateUsers, seed, until)
	case r.w.open:
		shape = fmt.Sprintf("open, Poisson, %g/s over %d connections", rate, len(r.st.conns))
		ph = r.gen.runOpen(rate, dur, rand.New(rand.NewSource(seed)))
	default:
		shape = fmt.Sprintf("closed, %d clients", len(r.st.conns))
		ph = r.gen.runClosed(len(r.st.conns), seed, until)
	}
	if r.res.loop == "" {
		r.res.loop = shape // the first loop is the workload's own; the SLO ladder's follow
	}
	return ph
}

// measure runs the workload's loop for dur at rate (open loops) with the
// process-wide meters read at every slice boundary, the churn feed beside it
// when the workload has one, and the oracle over everything it sent.
func (r *runner) measure(name string, dur time.Duration, rate float64) (window, error) {
	var win window
	before := r.st.counters()
	stop := make(chan struct{})
	feedDone := make(chan error, 1)
	meterDone := make(chan struct{})
	start := time.Now()
	win.readings = append(win.readings, r.read(start))
	go func() {
		defer close(meterDone)
		for i := 1; i < slices; i++ {
			select {
			case <-stop:
				return
			case <-time.After(time.Duration(i)*dur/slices - time.Since(start)):
				win.readings = append(win.readings, r.read(start))
			}
		}
	}()
	if r.feed != nil {
		r.pairs.hi = r.feed.hi
		go func() {
			acks, err := r.feed.run(r.st.router, stop)
			win.acks = acks
			feedDone <- err
		}()
	}
	win.ph = r.loop(dur, rate)
	close(stop)
	<-meterDone
	win.readings = append(win.readings, r.read(start))
	if r.feed != nil {
		if err := <-feedDone; err != nil {
			return win, err
		}
		r.updatesSent += int64(len(win.acks))
	}
	win.delta = r.st.counters().sub(before)
	win.verdict = r.check(name, win.ph)

	if r.feed != nil {
		// With the feed quiet and the overlays fresh again, a sample of
		// queries must match the base-metric reference exactly.
		if err := r.feed.quiesce(r.st.router, r.st.shards, r.updatesSent); err != nil {
			return win, err
		}
		r.updatesSent++
		r.pairs.hi = nil
		const quiescedSample = 200
		ph := r.gen.runClosed(2*len(r.st.conns), r.rng.Int63(), func(started int64, _ time.Duration) bool { return started >= quiescedSample })
		r.check(name+" (quiesced)", ph)
	}
	return win, nil
}

// latencies returns a phase's per-call latencies and generator lags (sent −
// intended), both in ms and sorted.
func latencies(ph phase) (lat []float64, lag []float64) {
	for i := range ph.samples {
		s := &ph.samples[i]
		lat = append(lat, ms(s.latency()))
		lag = append(lag, ms(s.sent-s.intended))
	}
	sort.Float64s(lat)
	sort.Float64s(lag)
	return lat, lag
}

// plainRun is the end-to-end measurement: tracing off, one window of the
// full length, every metric the median over the window's slices.
func (r *runner) plainRun(dur time.Duration, setupS float64) error {
	win, err := r.measure("measured", dur, r.rate())
	if err != nil {
		return err
	}
	if len(win.readings) != slices+1 {
		return fmt.Errorf("window has %d meter readings, want %d", len(win.readings), slices+1)
	}
	var qps, p50, p99, cpu, allocs, wire []float64
	for i := 0; i < slices; i++ {
		lo, hi := win.readings[i], win.readings[i+1]
		var lat []float64
		ok := 0.0
		for k := range win.ph.samples {
			s := &win.ph.samples[k]
			if from := time.Duration(i) * dur / slices; s.intended >= from && s.intended < from+dur/slices {
				lat = append(lat, ms(s.latency()))
			}
			if s.done > lo.at && s.done <= hi.at {
				for _, o := range s.outcomes {
					if o.err == nil {
						ok++
					}
				}
			}
		}
		if ok == 0 || len(lat) == 0 {
			continue
		}
		sort.Float64s(lat)
		qps = append(qps, ok/(hi.at-lo.at).Seconds())
		p50 = append(p50, quantile(lat, 0.50))
		p99 = append(p99, quantile(lat, 0.99))
		cpu = append(cpu, ms(hi.cpu-lo.cpu)/ok)
		allocs = append(allocs, float64(hi.mallocs-lo.mallocs)/ok)
		wire = append(wire, float64(hi.wire-lo.wire)/ok)
	}
	if len(qps) == 0 {
		return fmt.Errorf("no operation succeeded: %w", win.verdict.firstErr)
	}
	m := r.res.Metrics
	m["setup_s"] = value{setupS, "s"}
	m["goodput_qps"] = value{median(qps), "1/s"}
	m["client_p50_ms"] = value{median(p50), "ms"}
	m["client_p99_ms"] = value{median(p99), "ms"}
	m["cpu_ms_per_query"] = value{median(cpu), "ms"}
	m["allocs_per_query"] = value{median(allocs), "count"}
	m["wire_bytes_per_query"] = value{median(wire), "B"}
	m["peak_rss_mb"] = value{peakRSSMB(), "MiB"}
	return nil
}

// tracedRun produces the per-layer metrics. The time budget is split: an
// untraced and a traced pass of the workload's traffic (their difference is
// the tracing overhead), the replay of recorded inputs through single-layer
// entry points, and on point-open the throughput-at-SLO ladder.
func (r *runner) tracedRun(dur time.Duration) error {
	pass := dur / 4
	plain, err := r.measure("untraced", pass, r.rate())
	if err != nil {
		return err
	}
	r.tracer.on.Store(true)
	traced, err := r.measure("traced", pass, r.rate())
	r.tracer.on.Store(false)
	if err != nil {
		return err
	}
	spans := r.tracer.take()
	if r.opt.out != "" {
		if err := os.MkdirAll(r.opt.out, 0o755); err != nil {
			return err
		}
		if err := writeSpans(filepath.Join(r.opt.out, r.w.name+".spans.jsonl"), spans, r.w.direct); err != nil {
			return err
		}
	}

	m := layerMetrics{}
	m.fromWindow(r, plain, traced, analyse(spans, r.w.direct))
	if err := m.fromReplay(r); err != nil {
		return err
	}
	if r.w.name == "point-open" && !r.opt.calibrate {
		m.fromSLOLadder(r, dur/8)
	}
	for _, d := range layerMetricDefs {
		r.res.Metrics[d.name] = value{m[d.name], d.unit}
	}
	return nil
}
