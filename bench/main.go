// Command bench is the repository's benchmark: it builds the real networked
// OPAQUE stack in one process — generator → obfuscator service → fleet router
// → two server shards, each tier on its own loopback TCP listener speaking
// OPMX1 — drives it from a seeded load generator, verifies every answer
// against the reference oracle, and prints the metrics BENCHMARK.json names.
// README.md in this directory defines every workload and metric.
//
//	go run ./bench                              every workload, end-to-end metrics
//	go run ./bench -trace 1                     every workload, end-to-end and per-layer metrics
//	go run ./bench -workload point-open -seed 7 one workload; last stdout line is
//	                                            {"correct","attempted","failed","metrics"}
//	go run ./bench -repeat 5                    self-agreement against the bounds
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// provenance stamps a run's output with what produced it.
type provenance struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	CPU        string  `json:"cpu_model"`
	Seed       uint64  `json:"seed"`
	Nodes      int     `json:"nodes"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	Link       string  `json:"link"`
}

func newProvenance(opt options) provenance {
	p := provenance{
		Commit: "unknown", GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		CPU: cpuModel(), Seed: opt.seed, Nodes: opt.nodes, Seconds: opt.seconds, Trace: opt.trace,
		Link: "loopback TCP inside one process, not a real link: wire latency and link rate are not measured",
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				p.Commit = s.Value
			}
		}
	}
	return p
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// runRecord is the provenance of one workload run: how it was loaded and how
// many operations each phase sent.
type runRecord struct {
	Workload string       `json:"workload"`
	Loop     string       `json:"loop"`
	Phases   []phaseCount `json:"phases"`
	FirstErr string       `json:"first_error,omitempty"`
}

func (r *result) record() runRecord {
	rec := runRecord{Workload: r.workload, Loop: r.loop, Phases: r.phases}
	if r.firstErr != nil {
		rec.FirstErr = r.firstErr.Error()
	}
	return rec
}

// passed reports whether a run may exit 0: its answers were correct, and on
// a workload whose weights stand still nothing failed at all.
func (r *result) passed(w *workload) bool {
	return r.Correct && (w.churn || r.Failed == 0)
}

func main() {
	var opt options
	var trace int
	name := flag.String("workload", "all", "workload to run: point-open, wide-closed, churn-open, direct-batch or all")
	flag.Uint64Var(&opt.seed, "seed", 1, "seed of the arrival schedule, the endpoints and the obfuscator's fake-endpoint choice")
	flag.Float64Var(&opt.seconds, "seconds", 10, "length of each workload's measurement")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from a traced pass")
	flag.IntVar(&opt.nodes, "nodes", 10000, "road map size")
	flag.IntVar(&opt.setups, "setups", 3, "times the stack is set up per workload; setup_s is their median")
	flag.StringVar(&opt.out, "out", "", "directory the traced pass writes <workload>.spans.jsonl into (default: spans are not written)")
	flag.BoolVar(&opt.calibrate, "calibrate", false, "drive the workload closed-loop with many pipelined users and report its capacity")
	flag.Float64Var(&opt.rate, "rate", 0, "override an open-loop workload's committed rate (for calibration)")
	repeat := flag.Int("repeat", 0, "run the whole set this many times and check every end-to-end metric's spread against its bound")
	flag.Parse()
	opt.trace = trace != 0
	if flag.NArg() > 0 || opt.seconds <= 0 || opt.setups < 1 {
		flag.Usage()
		os.Exit(2)
	}

	out := json.NewEncoder(os.Stdout)
	if *repeat > 0 {
		os.Exit(repeatRuns(*repeat, opt))
	}
	if *name != "all" {
		w := workloadByName(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			os.Exit(2)
		}
		res, err := runWorkload(w, opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		// Provenance first; the result is the last line, as the contract asks.
		_ = out.Encode(struct {
			Provenance provenance `json:"provenance"`
			Run        runRecord  `json:"run"`
		}{newProvenance(opt), res.record()})
		_ = out.Encode(res)
		if !res.passed(w) {
			fmt.Fprintf(os.Stderr, "bench: %s: %d of %d operations failed: %v\n", w.name, res.Failed, res.Attempted, res.firstErr)
			os.Exit(1)
		}
		return
	}

	doc := struct {
		Provenance provenance         `json:"provenance"`
		Runs       []runRecord        `json:"runs"`
		Workloads  map[string]*result `json:"workloads"`
	}{Provenance: newProvenance(opt), Workloads: map[string]*result{}}
	ok := true
	for i := range workloads {
		w := &workloads[i]
		// End-to-end metrics always come from an untraced run; -trace 1 adds
		// the per-layer metrics of a traced one beside them.
		plain := opt
		plain.trace = false
		res, err := runWorkload(w, plain)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		doc.Runs = append(doc.Runs, res.record())
		if opt.trace {
			traced, err := runWorkload(w, opt)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s (traced): %v\n", w.name, err)
				os.Exit(1)
			}
			doc.Runs = append(doc.Runs, traced.record())
			res.Correct = res.Correct && traced.Correct
			res.Attempted += traced.Attempted
			res.Failed += traced.Failed
			for name, v := range traced.Metrics {
				res.Metrics[name] = v
			}
		}
		doc.Workloads[w.name] = res
		ok = ok && res.passed(w)
	}
	_ = out.Encode(doc)
	if !ok {
		os.Exit(1)
	}
}
