// Package experiments contains one runner per experiment of the
// reproduction, E1–E11. The OPAQUE paper is a four-page short paper whose
// figures are architectural, so each experiment operationalises one of the
// paper's quantitative claims (breach probability, the Lemma 1 cost model,
// the SSMD sharing argument, the independent-vs-shared trade-off, the
// Section II comparison with prior techniques, and the collusion-resistance
// claim) as a measured table. cmd/opaque-bench prints the tables, and the
// root bench_test.go wraps each runner in a testing.B benchmark. Each table
// carries notes stating the expected shape next to the measured one.
package experiments

import (
	"fmt"
	"io"
	"strings"
)

// Table is a formatted experiment result: a title, column headers, rows of
// cells and free-form notes explaining how to read it.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends one row of cells, formatting each value with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4g", v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// AddNote appends a note line.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Render writes the table as aligned plain text.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	b.WriteByte('\n')
	_, err := io.WriteString(w, b.String())
	return err
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	_ = t.Render(&b)
	return b.String()
}

// CSV renders the table as comma-separated values (header + rows), quoting
// nothing because cells never contain commas.
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.Columns, ","))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		b.WriteString(strings.Join(row, ","))
		b.WriteByte('\n')
	}
	return b.String()
}

// Scale trades experiment fidelity for runtime: Small keeps unit-test and
// benchmark runtimes low, Full uses paper-scale parameters.
type Scale string

// Scale levels.
const (
	Small Scale = "small"
	Full  Scale = "full"
)

// Runner is the common face of every experiment.
type Runner interface {
	ID() string
	Description() string
	Run(scale Scale) ([]*Table, error)
}

// All returns every experiment runner in report order.
func All() []Runner {
	return []Runner{
		E1Baselines{},
		E2Breach{},
		E3CostModel{},
		E4SSMD{},
		E5SharedVsIndependent{},
		E6ObfuscatorOverhead{},
		E7Scaling{},
		E8Strategies{},
		E9Collusion{},
		E10Linkage{},
		E11ServerLog{},
	}
}

// ByID returns the runner with the given experiment ID (case-insensitive), or
// an error listing valid IDs.
func ByID(id string) (Runner, error) {
	for _, r := range All() {
		if strings.EqualFold(r.ID(), id) {
			return r, nil
		}
	}
	var ids []string
	for _, r := range All() {
		ids = append(ids, r.ID())
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q (valid: %s)", id, strings.Join(ids, ", "))
}
