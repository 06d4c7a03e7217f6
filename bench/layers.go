package main

import (
	"fmt"
	"math"
	"net"
	"runtime"
	"sort"
	"time"

	"opaque/internal/ch"
	"opaque/internal/protocol"
	"opaque/internal/roadnet"
	"opaque/internal/search"
	"opaque/internal/storage"
)

// metricDef names one metric with its unit and the direction that is better.
type metricDef struct {
	name, unit, better string
}

// endToEndDefs are the metrics a client of the system would see, measured
// with tracing off; BENCHMARK.json lists the same names with their bounds.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower"},
	{"goodput_qps", "1/s", "higher"},
	{"client_p50_ms", "ms", "lower"},
	{"client_p99_ms", "ms", "lower"},
	{"cpu_ms_per_query", "ms", "lower"},
	{"allocs_per_query", "count", "lower"},
	{"wire_bytes_per_query", "B", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
}

// layerMetricDefs are the per-layer metrics of the traced run, layer =
// package name. README.md ("Interaction table") says which end-to-end
// metric each should move and on which workload. A metric a workload has no
// use for (fleet.* on direct-batch, say) reads 0 there.
var layerMetricDefs = []metricDef{
	{"loadgen.fail_ratio", "ratio", "lower"},
	{"loadgen.lag_p99_ms", "ms", "lower"},
	{"loadgen.backlog_end", "count", "lower"},
	{"loadgen.slo_rate_qps", "1/s", "higher"},
	{"loadgen.traced_p50_ms", "ms", "lower"},
	{"loadgen.trace_overhead_pct", "%", "lower"},
	{"loadgen.trace_sum_gap_pct", "%", "lower"},
	{"loadgen.trace_unresolved_pct", "%", "lower"},
	{"client.transport_self_ms", "ms", "lower"},
	{"obfsvc.window_wait_ms", "ms", "lower"},
	{"obfsvc.exec_transport_self_ms", "ms", "lower"},
	{"obfsvc.deliver_self_ms", "ms", "lower"},
	{"obfsvc.batch_size", "count", "higher"},
	{"obfsvc.queries_per_request", "count", "lower"},
	{"obfsvc.candidates_per_request", "count", "lower"},
	{"obfuscate.plan_us_per_batch", "us", "lower"},
	{"obfuscate.breach_mean", "ratio", "lower"},
	{"filter.extract_us_per_batch", "us", "lower"},
	{"protocol.echo_rtt_us.point", "us", "lower"},
	{"protocol.echo_rtt_us.wide", "us", "lower"},
	{"protocol.reply_bytes.point", "B", "lower"},
	{"protocol.reply_bytes.wide", "B", "lower"},
	{"protocol.allocs_per_echo.wide", "count", "lower"},
	{"protocol.frame_ns", "ns", "lower"},
	{"fleet.self_ms", "ms", "lower"},
	{"fleet.subqueries_per_query", "count", "lower"},
	{"fleet.shard_retries", "count", "lower"},
	{"fleet.generation_skew", "count", "lower"},
	{"fleet.degraded_replies", "count", "lower"},
	{"fleet.failovers", "count", "lower"},
	{"fleet.update_ack_p50_ms", "ms", "lower"},
	{"server.handle_ms_p50", "ms", "lower"},
	{"server.handle_slowest_ms", "ms", "lower"},
	{"server.evaluate_ms.point", "ms", "lower"},
	{"server.evaluate_ms.wide", "ms", "lower"},
	{"server.route_share.ch", "ratio", "higher"},
	{"server.route_share.mtm", "ratio", "higher"},
	{"server.route_share.fallback", "ratio", "lower"},
	{"server.overlay_stale_share", "ratio", "lower"},
	{"server.settled_per_query", "count", "lower"},
	{"server.workspace_reuse_ratio", "ratio", "higher"},
	{"server.recustomize_runs", "count", "lower"},
	{"server.recustomize_last_ms", "ms", "lower"},
	{"server.cells_recustomized", "count", "lower"},
	{"search.ssmd_ms_per_query", "ms", "lower"},
	{"search.tree_cache_hit_ratio", "ratio", "higher"},
	{"search.tree_cache_resumes", "count", "lower"},
	{"ch.point_query_us", "us", "lower"},
	{"ch.mtm_dist_ms.wide", "ms", "lower"},
	{"ch.mtm_table_ms.wide", "ms", "lower"},
	{"ch.unpack_ms.wide", "ms", "lower"},
	{"ch.mtm_bucket_scanned_per_table", "count", "lower"},
	{"ch.recustomize_incremental_ms", "ms", "lower"},
	{"ch.build_s", "s", "lower"},
	{"ch.load_ms", "ms", "lower"},
	{"storage.apply_weights_us", "us", "lower"},
}

// counters is a snapshot of the stack's public work counters, summed over
// the shards. Every entry only grows, so two snapshots subtract.
type counters map[string]float64

func (st *stack) counters() counters {
	c := counters{}
	if st.svc != nil {
		s := st.svc.Stats()
		c["obf.requests"] = float64(s.Requests)
		c["obf.batches"] = float64(s.Batches)
		c["obf.sent"] = float64(s.ObfuscatedSent)
		c["obf.candidates"] = float64(s.CandidatesRecv)
		c["obf.plan_ns"] = float64(s.ObfuscationNanos)
		c["obf.filter_ns"] = float64(s.FilterNanos)
	}
	if st.router != nil {
		m := st.router.Metrics()
		for _, name := range []string{"fleet_queries", "fleet_subqueries", "fleet_shard_retries", "fleet_generation_skew", "fleet_degraded_replies", "fleet_failovers"} {
			c[name] = float64(m.Counter(name))
		}
	}
	for _, sh := range st.shards {
		m := sh.Metrics()
		for _, name := range []string{"queries_processed", "ch_queries", "mtm_queries", "fallback_queries", "overlay_stale_queries", "recustomize_runs", "cells_recustomized"} {
			c[name] += float64(m.Counter(name))
		}
		total, _ := sh.TotalStats()
		c["settled"] += float64(total.SettledNodes)
		ws := sh.WorkspacePoolStats()
		c["ws.gets"] += float64(ws.Gets)
		c["ws.fresh"] += float64(ws.Fresh)
		tc := sh.TreeCacheStats()
		c["tc.hits"] += float64(tc.Hits)
		c["tc.misses"] += float64(tc.Misses)
		c["tc.resumes"] += float64(tc.Resumes)
	}
	return c
}

func (c counters) sub(prev counters) counters {
	out := counters{}
	for k, v := range c {
		out[k] = v - prev[k]
	}
	return out
}

// layerMetrics collects the per-layer values of one traced run by name.
type layerMetrics map[string]float64

// fromWindow fills in what the two traffic passes observed: the generator's
// own health, the span-derived self times, the counter ratios and what the
// shards' query logs say about privacy.
func (m layerMetrics) fromWindow(r *runner, plain, traced window, st selfTimes) {
	attempted := plain.verdict.attempted + traced.verdict.attempted
	m["loadgen.fail_ratio"] = ratio(float64(plain.verdict.failed+traced.verdict.failed), float64(attempted))
	lat, lag := latencies(traced.ph)
	plainLat, _ := latencies(plain.ph)
	m["loadgen.lag_p99_ms"] = quantile(lag, 0.99)
	m["loadgen.backlog_end"] = float64(traced.ph.backlog)
	m["loadgen.traced_p50_ms"] = quantile(lat, 0.5)
	if r.w.open && !r.opt.calibrate {
		// An open loop's goodput is its schedule; the overhead shows in latency.
		m["loadgen.trace_overhead_pct"] = 100 * ratio(quantile(lat, 0.5)-quantile(plainLat, 0.5), quantile(plainLat, 0.5))
	} else {
		qps := func(w window) float64 {
			return ratio(float64(w.verdict.attempted-w.verdict.failed), w.ph.wall.Seconds())
		}
		m["loadgen.trace_overhead_pct"] = 100 * ratio(qps(plain)-qps(traced), qps(plain))
	}

	d := traced.delta
	planMS := ratio(d["obf.plan_ns"], d["obf.batches"]) / 1e6
	// The self times of one request add up to its client span; the medians of
	// the parts should then add up to about the median of the whole.
	clientSelf, preExecute, execTransport := median(st.clientSelf), median(st.preExecute), median(st.execTransport)
	fleetSelf, shardSlowest, deliver := median(st.fleetSelf), median(st.shardSlowest), median(st.deliver)
	sum := clientSelf + preExecute + execTransport + fleetSelf + shardSlowest + deliver
	m["client.transport_self_ms"] = clientSelf
	m["obfsvc.window_wait_ms"] = math.Max(0, preExecute-planMS)
	m["obfsvc.exec_transport_self_ms"] = execTransport
	m["obfsvc.deliver_self_ms"] = deliver
	m["fleet.self_ms"] = fleetSelf
	m["server.handle_slowest_ms"] = shardSlowest
	m["server.handle_ms_p50"] = median(st.shardAll)
	m["loadgen.trace_sum_gap_pct"] = 100 * ratio(math.Abs(sum-median(st.total)), median(st.total))
	m["loadgen.trace_unresolved_pct"] = 100 * ratio(float64(st.unresolved), float64(st.unresolved+len(st.total)))

	m["obfsvc.batch_size"] = ratio(d["obf.requests"], d["obf.batches"])
	m["obfsvc.queries_per_request"] = ratio(d["obf.sent"], d["obf.requests"])
	m["obfsvc.candidates_per_request"] = ratio(d["obf.candidates"], d["obf.requests"])
	m["obfuscate.plan_us_per_batch"] = planMS * 1000
	if !r.w.direct {
		m["obfuscate.breach_mean"] = newServerView(r.st.shards).breachMean
	}
	m["filter.extract_us_per_batch"] = ratio(d["obf.filter_ns"], d["obf.batches"]) / 1000

	m["fleet.subqueries_per_query"] = ratio(d["fleet_subqueries"], d["fleet_queries"])
	m["fleet.shard_retries"] = d["fleet_shard_retries"]
	m["fleet.generation_skew"] = d["fleet_generation_skew"]
	m["fleet.degraded_replies"] = d["fleet_degraded_replies"]
	m["fleet.failovers"] = d["fleet_failovers"]
	var acks []float64
	for _, a := range append(plain.acks, traced.acks...) {
		acks = append(acks, ms(a))
	}
	m["fleet.update_ack_p50_ms"] = median(acks)

	q := d["queries_processed"]
	m["server.route_share.ch"] = ratio(d["ch_queries"], q)
	m["server.route_share.mtm"] = ratio(d["mtm_queries"], q)
	m["server.route_share.fallback"] = ratio(d["fallback_queries"], q)
	m["server.overlay_stale_share"] = ratio(d["overlay_stale_queries"], q)
	m["server.settled_per_query"] = ratio(d["settled"], q)
	m["server.workspace_reuse_ratio"] = ratio(d["ws.gets"]-d["ws.fresh"], d["ws.gets"])
	m["server.recustomize_runs"] = d["recustomize_runs"]
	m["server.cells_recustomized"] = d["cells_recustomized"]
	for _, sh := range r.st.shards {
		m["server.recustomize_last_ms"] = math.Max(m["server.recustomize_last_ms"], sh.Metrics().Gauge("recustomize_last_ms"))
	}
	m["search.tree_cache_hit_ratio"] = ratio(d["tc.hits"], d["tc.hits"]+d["tc.misses"])
	m["search.tree_cache_resumes"] = d["tc.resumes"]

	m["ch.build_s"] = r.st.chBuildS
	m["ch.load_ms"] = r.st.chLoadMS
}

// fromSLOLadder runs point-open's traffic at each committed rate step and
// reports the highest one that held the latency limit without a backlog
// building up. Quantised to the steps, so informational only.
func (m layerMetrics) fromSLOLadder(r *runner, step time.Duration) {
	for _, rate := range sloRateSteps {
		win, err := r.measure(fmt.Sprintf("slo %g/s", rate), step, rate)
		if err != nil {
			return
		}
		lat, _ := latencies(win.ph)
		// Little's law: at the limit, rate × sloP99 requests are in flight.
		backlogLimit := 2*rate*sloP99.Seconds() + 8
		if win.verdict.failed == 0 && quantile(lat, 0.99) <= ms(sloP99) && float64(win.ph.backlog) <= backlogLimit {
			m["loadgen.slo_rate_qps"] = rate
		}
	}
}

// Replay sizes: how often each single-layer entry point is called. Fixed
// counts keep the replay's duration, and so the traced run's, bounded.
const (
	replayPoint = 200 // 3×3 queries, point CH queries, echoes
	replayWide  = 30  // 16×16 tables
	replaySSMD  = 60  // 4×4 SSMD evaluations
	replayFrame = 200000
	replayRecus = 6
)

// endpoints returns the run's drawn sources and destinations as two flat
// lists, whichever pool they came from.
func (r *runner) endpoints() (srcs, dsts []roadnet.NodeID) {
	if r.pairs != nil {
		return r.pairs.src, r.pairs.dst
	}
	for i := range r.queries.sources {
		srcs = append(srcs, r.queries.sources[i]...)
		dsts = append(dsts, r.queries.dests[i]...)
	}
	return srcs, dsts
}

// shaped returns the k-th side×side query over the run's endpoints.
func shaped(srcs, dsts []roadnet.NodeID, k, side int) (s, t []roadnet.NodeID) {
	for i := 0; i < side; i++ {
		s = append(s, srcs[(k*side+i)%len(srcs)])
		t = append(t, dsts[(k*side+i)%len(dsts)])
	}
	return s, t
}

// timeEach calls fn n times and returns the median duration of a call.
func timeEach(n int, fn func(k int) error) (time.Duration, error) {
	durs := make([]float64, n)
	for k := 0; k < n; k++ {
		start := time.Now()
		if err := fn(k); err != nil {
			return 0, err
		}
		durs[k] = float64(time.Since(start))
	}
	sort.Float64s(durs)
	return time.Duration(quantile(durs, 0.5)), nil
}

// fromReplay feeds the run's recorded inputs through single-layer entry
// points on the now idle stack: these rows isolate a kernel or a codec from
// the traffic around it.
func (m layerMetrics) fromReplay(r *runner) error {
	srcs, dsts := r.endpoints()
	g := r.st.g
	srv := r.st.shards[0]

	// server: Evaluate with no transport in front of it.
	evaluate := func(side, n int) (time.Duration, protocol.ServerReply, error) {
		var last protocol.ServerReply
		d, err := timeEach(n, func(k int) error {
			s, t := shaped(srcs, dsts, k, side)
			var err error
			last, err = srv.Evaluate(protocol.ServerQuery{QueryID: 1<<40 + uint64(k), Sources: s, Dests: t})
			return err
		})
		return d, last, err
	}
	d, pointReply, err := evaluate(3, replayPoint)
	if err != nil {
		return fmt.Errorf("replaying point queries: %w", err)
	}
	m["server.evaluate_ms.point"] = ms(d)
	d, wideReply, err := evaluate(16, replayWide)
	if err != nil {
		return fmt.Errorf("replaying wide queries: %w", err)
	}
	m["server.evaluate_ms.wide"] = ms(d)

	// protocol: a recorded reply through encode, frame, loopback and decode.
	rtt, bytes, _, err := echo(pointReply, replayPoint)
	if err != nil {
		return err
	}
	m["protocol.echo_rtt_us.point"], m["protocol.reply_bytes.point"] = rtt, bytes
	rtt, bytes, allocs, err := echo(wideReply, replayPoint)
	if err != nil {
		return err
	}
	m["protocol.echo_rtt_us.wide"], m["protocol.reply_bytes.wide"], m["protocol.allocs_per_echo.wide"] = rtt, bytes, allocs
	m["protocol.frame_ns"] = frameNS()

	// search: the SSMD kernel on 4×4 queries, no cache.
	proc := search.NewProcessor(storage.NewMemoryGraph(g), search.WithStrategy(search.StrategySSMD))
	d, err = timeEach(replaySSMD, func(k int) error {
		s, t := shaped(srcs, dsts, k, directSide)
		_, err := proc.Evaluate(s, t)
		return err
	})
	if err != nil {
		return fmt.Errorf("replaying SSMD queries: %w", err)
	}
	m["search.ssmd_ms_per_query"] = ms(d)

	// storage: the copy-on-write apply of one update batch.
	feed := r.feed
	if feed == nil && r.st.part != nil {
		if feed, err = newChurnFeed(g, r.st.part); err != nil {
			return err
		}
	}
	if feed != nil {
		mg := storage.NewMutableGraph(g)
		d, err = timeEach(2*replayRecus, func(k int) error {
			_, err := mg.UpdateWeights(feed.batch(k))
			return err
		})
		if err != nil {
			return err
		}
		m["storage.apply_weights_us"] = float64(d) / 1000
	}

	overlay := srv.Overlay()
	if overlay == nil {
		return nil // direct-batch: the ch rows stay 0
	}
	// ch: point queries, the many-to-many table with and without paths.
	engine := ch.NewEngine(overlay, nil)
	d, err = timeEach(replayPoint, func(k int) error {
		_, _, err := engine.Path(srcs[k%len(srcs)], dsts[k%len(dsts)])
		return err
	})
	if err != nil {
		return fmt.Errorf("replaying CH point queries: %w", err)
	}
	m["ch.point_query_us"] = float64(d) / 1000
	mtm := ch.NewMTM(overlay, nil)
	var table []float64
	dist, err := timeEach(replayWide, func(k int) error {
		s, t := shaped(srcs, dsts, k, 16)
		var err error
		table, _, err = mtm.DistancesInto(table, s, t)
		return err
	})
	if err != nil {
		return fmt.Errorf("replaying MTM distances: %w", err)
	}
	scanned := mtm.Stats()
	m["ch.mtm_bucket_scanned_per_table"] = ratio(float64(scanned.BucketEntriesScanned), float64(scanned.Tables))
	full, err := timeEach(replayWide, func(k int) error {
		s, t := shaped(srcs, dsts, k, 16)
		tbl, err := mtm.Table(s, t)
		if err != nil {
			return err
		}
		for i := range s {
			for j := range t {
				tbl.Path(i, j)
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("replaying MTM tables: %w", err)
	}
	m["ch.mtm_dist_ms.wide"], m["ch.mtm_table_ms.wide"], m["ch.unpack_ms.wide"] = ms(dist), ms(full), ms(full-dist)

	// ch: cell-local re-customization of the churn feed's batches. The first
	// pass after a load is a full one and primes the incremental state.
	cur, _, err := overlay.RecustomizeIncremental(g)
	if err != nil {
		return err
	}
	graphs := [2]*roadnet.Graph{feed.hi, g}
	d, err = timeEach(replayRecus, func(k int) error {
		next, _, err := cur.RecustomizeIncremental(graphs[k%2])
		cur = next
		return err
	})
	if err != nil {
		return fmt.Errorf("replaying re-customization: %w", err)
	}
	m["ch.recustomize_incremental_ms"] = ms(d)
	return nil
}

// echo measures one recorded reply travelling through the transport alone:
// a MuxClient.Do against a ServeMux handler that returns the reply, over
// loopback. It reports the median round trip in µs, the reply's bytes on the
// wire and the allocations per round trip (both ends, steady state).
func echo(reply protocol.ServerReply, n int) (rttUS, replyBytes, allocs float64, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, 0, 0, err
	}
	var wire wireCounter
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = protocol.ServeMux(countingListener{Listener: ln, wire: &wire},
			protocol.MuxHandlerFunc(func(any, protocol.ReqInfo) (any, error) { return reply, nil }), protocol.MuxServerConfig{})
	}()
	defer func() {
		ln.Close()
		<-served
	}()
	c, err := protocol.DialMux(ln.Addr().String(), protocol.Hello{Node: "echo", Role: "client"})
	if err != nil {
		return 0, 0, 0, err
	}
	defer c.Close()
	query := protocol.ServerQuery{QueryID: 1, Sources: []roadnet.NodeID{0}, Dests: []roadnet.NodeID{1}}
	do := func(int) error {
		_, err := c.Do(query)
		return err
	}
	// The first exchanges carry gob's type descriptions; steady state does not.
	if _, err := timeEach(10, do); err != nil {
		return 0, 0, 0, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	out0 := wire.out.Load()
	d, err := timeEach(n, do)
	if err != nil {
		return 0, 0, 0, err
	}
	runtime.ReadMemStats(&ms1)
	return float64(d) / 1000, float64(wire.out.Load()-out0) / float64(n), float64(ms1.Mallocs-ms0.Mallocs) / float64(n), nil
}

// frameNS times AppendFrame + DecodeFrame of a 1 KiB payload.
func frameNS() float64 {
	payload := make([]byte, 1024)
	buf := make([]byte, 0, 2048)
	start := time.Now()
	for i := 0; i < replayFrame; i++ {
		b, err := protocol.AppendFrame(buf[:0], protocol.Frame{Type: protocol.FrameMsg, ID: uint64(i), Payload: payload})
		if err != nil {
			return 0
		}
		if _, _, err := protocol.DecodeFrame(b); err != nil {
			return 0
		}
	}
	return float64(time.Since(start)) / replayFrame
}
