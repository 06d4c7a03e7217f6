// Package metrics is a small, dependency-free instrumentation registry used
// by the OPAQUE server and obfuscator service: named counters, gauges and
// latency histograms that can be snapshotted for logs and tests. It is how
// the reproduction observes the quantities the paper's evaluation
// (Section V) reports — queries processed, nodes settled, page faults, batch
// sizes, cache hit ratios — without wiring an external metrics stack into a
// research codebase.
//
// The hot path is lock-free: counters are atomic integers obtained once with
// CounterVar and bumped without touching the registry map, and histograms use
// atomic buckets, so the batch engine can record per-query metrics from many
// workers without a shared mutex. Name-based lookups (Add, Observe) remain
// for convenience on cold paths. The design still favours predictable
// behaviour over features — fixed histogram buckets, no background
// goroutines — which is all a reproduction study needs to report what its
// components did.
package metrics

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a named monotonically increasing value. Obtain one with
// Registry.CounterVar and keep it: Add on a Counter is a single atomic
// instruction, suitable for per-query hot paths.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by delta.
func (c *Counter) Add(delta int64) { c.v.Add(delta) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Registry holds named metrics. The zero value is not usable; create one with
// NewRegistry. All methods are safe for concurrent use.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]float64
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]float64),
		histograms: make(map[string]*Histogram),
	}
}

// CounterVar returns the named counter, registering it on first use. Callers
// on hot paths should fetch the Counter once and Add on it directly.
func (r *Registry) CounterVar(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Add increments the named counter by delta (convenience name-based form;
// prefer CounterVar on hot paths).
func (r *Registry) Add(name string, delta int64) {
	r.CounterVar(name).Add(delta)
}

// Counter returns the current value of the named counter (0 if never used).
func (r *Registry) Counter(name string) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c.Value()
	}
	return 0
}

// SetGauge records an instantaneous value.
func (r *Registry) SetGauge(name string, value float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gauges[name] = value
}

// Gauge returns the last recorded value of the named gauge (0 if never set).
func (r *Registry) Gauge(name string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.gauges[name]
}

// HistogramVar returns the named histogram, registering it on first use.
// Callers on hot paths should fetch the Histogram once and Observe on it
// directly.
func (r *Registry) HistogramVar(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = NewHistogram()
		r.histograms[name] = h
	}
	return h
}

// Observe records a duration in the named histogram (convenience name-based
// form; prefer HistogramVar on hot paths).
func (r *Registry) Observe(name string, d time.Duration) {
	r.HistogramVar(name).Observe(d)
}

// Histogram returns the named histogram, or nil when nothing was observed.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.histograms[name]
}

// Snapshot captures every metric at one point in time, with stable ordering
// for rendering.
type Snapshot struct {
	Counters   []NamedValue
	Gauges     []NamedValue
	Histograms []NamedHistogram
}

// NamedValue is one counter or gauge value.
type NamedValue struct {
	Name  string
	Value float64
}

// NamedHistogram is one histogram summary.
type NamedHistogram struct {
	Name    string
	Count   int64
	Mean    time.Duration
	P50     time.Duration
	P90     time.Duration
	P99     time.Duration
	Maximum time.Duration
}

// Snapshot returns a copy of every metric.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	var snap Snapshot
	for name, c := range r.counters {
		snap.Counters = append(snap.Counters, NamedValue{Name: name, Value: float64(c.Value())})
	}
	for name, v := range r.gauges {
		snap.Gauges = append(snap.Gauges, NamedValue{Name: name, Value: v})
	}
	for name, h := range r.histograms {
		s := h.Summary()
		s.Name = name
		snap.Histograms = append(snap.Histograms, s)
	}
	sort.Slice(snap.Counters, func(i, j int) bool { return snap.Counters[i].Name < snap.Counters[j].Name })
	sort.Slice(snap.Gauges, func(i, j int) bool { return snap.Gauges[i].Name < snap.Gauges[j].Name })
	sort.Slice(snap.Histograms, func(i, j int) bool { return snap.Histograms[i].Name < snap.Histograms[j].Name })
	return snap
}

// histogram bucket boundaries: 16 exponentially growing latency buckets from
// 100µs to ~55min; the last bucket is open-ended.
var bucketBounds = buildBounds()

func buildBounds() []time.Duration {
	bounds := make([]time.Duration, 0, 16)
	d := 100 * time.Microsecond
	for i := 0; i < 16; i++ {
		bounds = append(bounds, d)
		d *= 2
	}
	return bounds
}

// Histogram is a fixed-bucket latency histogram. Per-bucket counts and the
// running sum/max are atomics, so Observe is lock-free and safe to call from
// any number of goroutines; summaries read a slightly racy but internally
// consistent-enough snapshot, which is fine for reporting.
type Histogram struct {
	buckets  [17]atomic.Int64 // len(bucketBounds)+1 overflow bucket
	count    atomic.Int64
	sumNanos atomic.Int64
	maxNanos atomic.Int64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	idx := len(bucketBounds)
	for i, b := range bucketBounds {
		if d <= b {
			idx = i
			break
		}
	}
	h.buckets[idx].Add(1)
	h.count.Add(1)
	h.sumNanos.Add(int64(d))
	for {
		cur := h.maxNanos.Load()
		if int64(d) <= cur || h.maxNanos.CompareAndSwap(cur, int64(d)) {
			break
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Quantile returns an upper bound for the q-quantile (0 ≤ q ≤ 1) based on the
// bucket boundaries; the overflow bucket reports the observed maximum.
func (h *Histogram) Quantile(q float64) time.Duration {
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	count := h.count.Load()
	if count == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(count)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		if cum >= target {
			if i < len(bucketBounds) {
				return bucketBounds[i]
			}
			return time.Duration(h.maxNanos.Load())
		}
	}
	return time.Duration(h.maxNanos.Load())
}

// Summary returns count, mean and the standard percentiles.
func (h *Histogram) Summary() NamedHistogram {
	count := h.count.Load()
	s := NamedHistogram{Count: count, Maximum: time.Duration(h.maxNanos.Load())}
	if count > 0 {
		s.Mean = time.Duration(h.sumNanos.Load()) / time.Duration(count)
	}
	s.P50 = h.Quantile(0.50)
	s.P90 = h.Quantile(0.90)
	s.P99 = h.Quantile(0.99)
	return s
}
