package metrics

import (
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestCountersAndGauges(t *testing.T) {
	r := NewRegistry()
	if r.Counter("queries") != 0 {
		t.Error("unused counter should read 0")
	}
	r.Add("queries", 3)
	r.Add("queries", 2)
	if got := r.Counter("queries"); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	r.SetGauge("buffer_hit_ratio", 0.75)
	if got := r.Gauge("buffer_hit_ratio"); got != 0.75 {
		t.Errorf("gauge = %v, want 0.75", got)
	}
	if r.Gauge("missing") != 0 {
		t.Error("unset gauge should read 0")
	}
}

func TestHistogramObservations(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Quantile(0.5) != 0 {
		t.Error("empty histogram should report zeroes")
	}
	durations := []time.Duration{
		50 * time.Microsecond,
		300 * time.Microsecond,
		2 * time.Millisecond,
		2 * time.Millisecond,
		40 * time.Millisecond,
	}
	for _, d := range durations {
		h.Observe(d)
	}
	h.Observe(-time.Second) // clamped to zero, must not panic or corrupt
	if h.Count() != int64(len(durations))+1 {
		t.Errorf("count = %d", h.Count())
	}
	s := h.Summary()
	if s.Maximum != 40*time.Millisecond {
		t.Errorf("max = %v", s.Maximum)
	}
	if s.Mean <= 0 {
		t.Errorf("mean = %v", s.Mean)
	}
	if s.P50 > s.P90 || s.P90 > s.P99 {
		t.Errorf("percentiles not monotone: %v %v %v", s.P50, s.P90, s.P99)
	}
	if s.P99 < 40*time.Millisecond {
		t.Errorf("p99 = %v, should cover the slowest observation's bucket", s.P99)
	}
}

// Property: for any set of observations, quantiles are monotone in q and the
// p100 bound is at least the true maximum.
func TestHistogramQuantileProperty(t *testing.T) {
	f := func(raw []uint32) bool {
		h := NewHistogram()
		var max time.Duration
		for _, v := range raw {
			d := time.Duration(v%10_000_000) * time.Microsecond
			if d > max {
				max = d
			}
			h.Observe(d)
		}
		if len(raw) == 0 {
			return h.Quantile(0.5) == 0
		}
		q50, q90, q100 := h.Quantile(0.5), h.Quantile(0.9), h.Quantile(1)
		return q50 <= q90 && q90 <= q100 && q100 >= max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestRegistryHistogramAndSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Add("queries", 2)
	r.SetGauge("resident_pages", 12)
	r.Observe("query_latency", 3*time.Millisecond)
	r.Observe("query_latency", 5*time.Millisecond)
	if r.Histogram("query_latency") == nil {
		t.Fatal("histogram not registered")
	}
	if r.Histogram("other") != nil {
		t.Error("unknown histogram should be nil")
	}
	snap := r.Snapshot()
	if len(snap.Counters) != 1 || snap.Counters[0].Name != "queries" || snap.Counters[0].Value != 2 {
		t.Errorf("counters snapshot = %+v", snap.Counters)
	}
	if len(snap.Gauges) != 1 || snap.Gauges[0].Value != 12 {
		t.Errorf("gauges snapshot = %+v", snap.Gauges)
	}
	if len(snap.Histograms) != 1 || snap.Histograms[0].Count != 2 {
		t.Errorf("histograms snapshot = %+v", snap.Histograms)
	}
}

func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Add("ops", 1)
				r.Observe("lat", time.Duration(i)*time.Microsecond)
				r.SetGauge("g", float64(i))
			}
		}()
	}
	wg.Wait()
	if r.Counter("ops") != 1600 {
		t.Errorf("ops = %d, want 1600", r.Counter("ops"))
	}
	if r.Histogram("lat").Count() != 1600 {
		t.Errorf("lat count = %d, want 1600", r.Histogram("lat").Count())
	}
}
