// Command opaque-bench regenerates the experiment tables of the
// reproduction, E1–E11: the Figure 2 baseline comparison, Definition 2
// breach probabilities, the Lemma 1 cost-model calibration, the SSMD sharing
// measurement, the independent-vs-shared trade-off, obfuscator overhead,
// scaling, the fake-endpoint strategy ablation, the collusion attack, and
// the linkage and server-log analyses. System performance is measured
// elsewhere: end to end by bench/, per kernel by `go test -bench`.
//
// Usage:
//
//	opaque-bench                 # run every experiment at small scale
//	opaque-bench -scale full     # paper-scale parameters (slower)
//	opaque-bench -exp E5         # run a single experiment
//	opaque-bench -exp E2,E4      # run several
//	opaque-bench -list           # list experiments
//	opaque-bench -csv dir/       # also write each table as CSV
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"strings"

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
		expID  = fs.String("exp", "", "run experiments by id (E1..E11), comma-separated; empty runs all")
		scale  = fs.String("scale", "small", "experiment scale: small | full")
		list   = fs.Bool("list", false, "list available experiments and exit")
		csvDir = fs.String("csv", "", "directory to also write per-table CSV files into")
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

	for _, r := range runners {
		// Progress goes to the diagnostic stream so stdout stays pure
		// machine-readable table output.
		fmt.Fprintf(errOut, "running %s: %s\n", r.ID(), r.Description())
		tables, err := r.Run(sc)
		if err != nil {
			return fmt.Errorf("%s failed: %w", r.ID(), err)
		}
		for _, t := range tables {
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
	}
	return nil
}
