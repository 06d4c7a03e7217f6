package main

import (
	"regexp"
	"testing"
	"time"

	"opaque/internal/obfsvc"
	"opaque/internal/protocol"
)

// smokeOptions sizes a run for the tier-1 test: a small map, one second of
// measurement, one set-up.
func smokeOptions(trace bool) options {
	return options{seed: 1, seconds: 1, nodes: 2000, setups: 1, trace: trace}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// TestManifestMatchesProgram pins BENCHMARK.json to the names, units and
// directions the program reports.
func TestManifestMatchesProgram(t *testing.T) {
	man, err := readManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(man.Workloads), len(workloads))
	}
	for i, w := range man.Workloads {
		if w.Name != workloads[i].name || w.Why == "" {
			t.Errorf("workload %d is %q (why %q), the program has %q", i, w.Name, w.Why, workloads[i].name)
		}
	}
	if len(man.EndToEnd) != len(endToEndDefs) {
		t.Fatalf("BENCHMARK.json names %d end-to-end metrics, the program has %d", len(man.EndToEnd), len(endToEndDefs))
	}
	for i, m := range man.EndToEnd {
		if d := endToEndDefs[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end-to-end metric %d is %+v, the program has %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(man.PerLayer) != len(layerMetricDefs) {
		t.Fatalf("BENCHMARK.json names %d per-layer metrics, the program has %d", len(man.PerLayer), len(layerMetricDefs))
	}
	for i, m := range man.PerLayer {
		if d := layerMetricDefs[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer metric %d is %+v, the program has %+v", i, m, d)
		}
	}
}

// checkResult asserts that a run reported exactly the metrics of defs, each
// once (a map cannot hold a name twice) and with its unit, and that its
// counts add up.
func checkResult(t *testing.T, res *result, defs []metricDef) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d (%v)", res.Correct, res.Attempted, res.Failed, res.firstErr)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("run reports %d metrics, want %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := res.Metrics[d.name]
		if !ok {
			t.Errorf("metric %s missing", d.name)
			continue
		}
		if v.Unit != d.unit {
			t.Errorf("metric %s has unit %q, want %q", d.name, v.Unit, d.unit)
		}
		if !metricName.MatchString(d.name) {
			t.Errorf("metric name %q has characters outside [A-Za-z0-9_.-]", d.name)
		}
	}
	sent, failed := 0, 0
	for _, ph := range res.phases {
		if ph.Sent != ph.Succeeded+ph.Failed {
			t.Errorf("phase %s: sent %d != succeeded %d + failed %d", ph.Phase, ph.Sent, ph.Succeeded, ph.Failed)
		}
		if ph.Phase != "warm-up" {
			sent += ph.Sent
			failed += ph.Failed
		}
	}
	if sent != res.Attempted || failed != res.Failed {
		t.Errorf("phases add up to %d sent / %d failed, result says %d / %d", sent, failed, res.Attempted, res.Failed)
	}
}

// TestSmoke runs every workload end to end and traced on a small map. The
// workloads run side by side: the assertions are about what is reported, not
// how fast, and most of a run is spent waiting on batching windows.
func TestSmoke(t *testing.T) {
	for i := range workloads {
		w := workloads[i]
		w.warmOps /= 5
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			res, err := runWorkload(&w, smokeOptions(false))
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, endToEndDefs)
			for _, d := range endToEndDefs {
				if res.Metrics[d.name].Value <= 0 {
					t.Errorf("end-to-end metric %s is %v; it must never be 0", d.name, res.Metrics[d.name].Value)
				}
			}

			res, err = runWorkload(&w, smokeOptions(true))
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, layerMetricDefs)
			// The ≤ 15 % limit on loadgen.trace_sum_gap_pct holds at full size;
			// a quarter-second pass beside three other workloads only shows
			// that the spans joined at all.
			if res.Metrics["loadgen.traced_p50_ms"].Value <= 0 || res.Metrics["loadgen.trace_unresolved_pct"].Value > 50 {
				t.Errorf("traced pass: p50 %v ms, %v%% of requests without a span chain",
					res.Metrics["loadgen.traced_p50_ms"].Value, res.Metrics["loadgen.trace_unresolved_pct"].Value)
			}
		})
	}
}

// stallingExecutor delays every batch it forwards.
type stallingExecutor struct {
	obfsvc.BatchExecutor
	stall time.Duration
}

func (e stallingExecutor) ExecuteBatch(qs []protocol.ServerQuery) ([]protocol.ServerReply, []error) {
	time.Sleep(e.stall)
	return e.BatchExecutor.ExecuteBatch(qs)
}

// TestStallShowsInClientLatency injects a 200 ms stall below the obfuscator.
// An open loop keeps sending on schedule while the stack stalls, and its
// latency runs from the intended send time, so the stall must appear in the
// client's latency itself — not be absorbed by a generator that waited.
func TestStallShowsInClientLatency(t *testing.T) {
	t.Parallel()
	const stall = 200 * time.Millisecond
	opt := smokeOptions(false)
	opt.rate = 200
	opt.wrapExecutor = func(e obfsvc.BatchExecutor) obfsvc.BatchExecutor {
		return stallingExecutor{BatchExecutor: e, stall: stall}
	}
	w := *workloadByName("point-open")
	w.warmOps = 8 // every warm-up operation pays the stall too
	res, err := runWorkload(&w, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("correct=%v failed=%d (%v)", res.Correct, res.Failed, res.firstErr)
	}
	for _, name := range []string{"client_p50_ms", "client_p99_ms"} {
		if got := res.Metrics[name].Value; got < ms(stall) {
			t.Errorf("%s = %.1f ms with a %v stall in every batch; the stall did not reach the client's latency", name, got, stall)
		}
	}
	// The schedule is drawn from the seed alone: a loop that waited for
	// replies would have sent a handful of requests, not the whole second's.
	if want := int(0.75 * opt.rate * opt.seconds); res.Attempted < want {
		t.Errorf("%d requests sent; an open loop at %.0f/s must send at least %d through the stall", res.Attempted, opt.rate, want)
	}
}
