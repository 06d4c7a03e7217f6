// Command opaque-bench regenerates the experiment tables of the reproduction
// (DESIGN.md §5 / EXPERIMENTS.md): the Figure 2 baseline comparison,
// Definition 2 breach probabilities, the Lemma 1 cost-model calibration, the
// SSMD sharing measurement, the independent-vs-shared trade-off, obfuscator
// overhead, scaling, the fake-endpoint strategy ablation, the collusion
// attack, the linkage and server-log analyses, the batch-engine throughput
// measurement (E12, which also reports the SSMD tree cache hit ratio from
// the server's metrics registry), the workspace hot-path measurement
// (E13: epoch-stamped search workspaces vs the fresh-slice baseline,
// allocs/query and queries/sec), the contraction-hierarchy measurement
// (E14: offline contraction cost and overlay size versus point-query
// speedup over Dijkstra and ALT), the many-to-many table measurement
// (E15: bucket-algorithm Q(S,T) tables vs SSMD across |S|×|T| shapes, the
// engine the hybrid server routes every overlay query to), and
// the live weight update measurement (E16: copy-on-write apply cost and CH
// re-customization versus a full rebuild, per update batch size), the
// arc-level update measurement (E17: arcs re-derived and milliseconds per
// update on a partitioned overlay versus the full pass, per number of cells
// the update spreads over), and the
// streaming ingestion measurement (E18: coalesced update batches and
// pipelined re-customization under concurrent live and profile-layer query load,
// events/sec versus p99 latency versus the visibility lag), the fleet
// serving-tier measurement (E19: scatter/gather throughput over partition
// and replicate shards versus a single server, every merged table verified
// against the reference), and the availability-under-faults measurement
// (E20: the same fleet workload with one shard crashed, restarted cold and
// blackholed in turn — availability, failover/breaker/heartbeat activity
// and replay convergence per phase).
//
// Usage:
//
//	opaque-bench                 # run every experiment at small scale
//	opaque-bench -scale full     # paper-scale parameters (slower)
//	opaque-bench -exp E5         # run a single experiment
//	opaque-bench -exp E13,E15    # run several
//	opaque-bench -list           # list experiments
//	opaque-bench -csv dir/       # also write each table as CSV
//	opaque-bench -json dir/      # also record a BENCH_<date>.json perf file
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"opaque/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("opaque-bench: ")
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return // -h/-help printed usage; that is a successful exit
		}
		if errors.Is(err, errUsage) {
			os.Exit(2) // the flag package already printed the details; 2 matches flag.ExitOnError
		}
		log.Fatal(err)
	}
}

// errUsage marks a command-line parse failure whose details the flag package
// has already written to the diagnostic stream.
var errUsage = errors.New("invalid command line")

// run parses args and executes the selected experiments, writing tables and
// progress lines to out and flag diagnostics (usage, parse errors) to
// errOut. It is the testable core of the command.
func run(args []string, out, errOut io.Writer) error {
	fs := flag.NewFlagSet("opaque-bench", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var (
		expID   = fs.String("exp", "", "run experiments by id (E1..E18), comma-separated; empty runs all")
		scale   = fs.String("scale", "small", "experiment scale: small | full")
		list    = fs.Bool("list", false, "list available experiments and exit")
		csvDir  = fs.String("csv", "", "directory to also write per-table CSV files into")
		jsonDir = fs.String("json", "", "directory to also write a machine-readable BENCH_<date>.json perf record into")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errUsage
	}

	if *list {
		for _, r := range experiments.All() {
			fmt.Fprintf(out, "%-4s %s\n", r.ID(), r.Description())
		}
		return nil
	}

	sc := experiments.Scale(strings.ToLower(*scale))
	if sc != experiments.Small && sc != experiments.Full {
		return fmt.Errorf("unknown scale %q (want small or full)", *scale)
	}

	var runners []experiments.Runner
	if *expID == "" {
		runners = experiments.All()
	} else {
		for _, id := range strings.Split(*expID, ",") {
			r, err := experiments.ByID(strings.TrimSpace(id))
			if err != nil {
				return err
			}
			runners = append(runners, r)
		}
	}

	var records []benchRecord
	for _, r := range runners {
		// Progress goes to the diagnostic stream so stdout stays pure
		// machine-readable table output.
		fmt.Fprintf(errOut, "running %s: %s\n", r.ID(), r.Description())
		var before runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		tables, err := r.Run(sc)
		if err != nil {
			return fmt.Errorf("%s failed: %w", r.ID(), err)
		}
		elapsed := time.Since(start)
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		rec := benchRecord{
			Name:        r.ID(),
			Description: r.Description(),
			Scale:       string(sc),
			NsPerOp:     elapsed.Nanoseconds(),
			AllocsPerOp: int64(after.Mallocs - before.Mallocs),
		}
		for _, t := range tables {
			rec.Tables = append(rec.Tables, tableShape{
				ID:      t.ID,
				Rows:    len(t.Rows),
				Cols:    len(t.Columns),
				Columns: t.Columns,
				Cells:   t.Rows,
			})
			if err := t.Render(out); err != nil {
				return fmt.Errorf("rendering %s: %w", t.ID, err)
			}
			if *csvDir != "" {
				if err := os.MkdirAll(*csvDir, 0o755); err != nil {
					return fmt.Errorf("creating %s: %w", *csvDir, err)
				}
				name := filepath.Join(*csvDir, strings.ToLower(t.ID)+".csv")
				if err := os.WriteFile(name, []byte(t.CSV()), 0o644); err != nil {
					return fmt.Errorf("writing %s: %w", name, err)
				}
			}
		}
		records = append(records, rec)
	}

	if *jsonDir != "" {
		name, err := writeBenchJSON(*jsonDir, records)
		if err != nil {
			return err
		}
		fmt.Fprintf(errOut, "bench record written to %s\n", name)
	}
	return nil
}

// benchRecord is one experiment's entry in the BENCH_<date>.json perf file:
// enough to plot the performance trajectory across PRs (one run = one op;
// allocations measured via runtime.MemStats deltas) and to sanity-check the
// table shapes the run produced.
type benchRecord struct {
	Name        string       `json:"name"`
	Description string       `json:"description"`
	Scale       string       `json:"scale"`
	NsPerOp     int64        `json:"ns_per_op"`
	AllocsPerOp int64        `json:"allocs_per_op"`
	Tables      []tableShape `json:"tables"`
}

// tableShape records the dimensions *and content* of one produced table:
// the column headers and every row's cells, so downstream tooling can read
// measured values (E16's per-batch update costs, E15's crossover times)
// straight out of the artifact instead of re-parsing rendered text.
type tableShape struct {
	ID      string     `json:"id"`
	Rows    int        `json:"rows"`
	Cols    int        `json:"cols"`
	Columns []string   `json:"columns"`
	Cells   [][]string `json:"cells"`
}

// benchFile is the envelope of a BENCH_<date>.json file.
type benchFile struct {
	GeneratedAt string        `json:"generated_at"`
	GoVersion   string        `json:"go_version"`
	Experiments []benchRecord `json:"experiments"`
}

// writeBenchJSON persists the run's records as <dir>/BENCH_<YYYY-MM-DD>.json
// and returns the file name. CI uploads the file as an artifact, so the
// repository accumulates a machine-readable perf history.
func writeBenchJSON(dir string, records []benchRecord) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("creating %s: %w", dir, err)
	}
	now := time.Now().UTC()
	name := filepath.Join(dir, "BENCH_"+now.Format("2006-01-02")+".json")
	payload, err := json.MarshalIndent(benchFile{
		GeneratedAt: now.Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		Experiments: records,
	}, "", "  ")
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(name, append(payload, '\n'), 0o644); err != nil {
		return "", fmt.Errorf("writing %s: %w", name, err)
	}
	return name, nil
}
