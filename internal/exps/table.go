// Package exps is the experiment harness: it regenerates, for every table
// and figure listed below, the rows/series a paper evaluation would
// report. The brief announcement itself has no evaluation section, so this
// suite is the comparative study its conclusion announces — every empirical
// claim traces back to one of the five theorems or Proposition 1.
//
// The experiments, by Table ID and Title, in All's report order:
//
//	T1  Theorem 1: fork closed form vs numeric optimum
//	T2  Theorem 2: tree/SP equivalent-weight algebra vs numeric optimum
//	T3  Theorem 3: Vdd-Hopping LP optimum within the model hierarchy
//	T4  Theorem 4: exponential exact search vs polynomial LP/convex solves
//	T5  Theorem 5: measured approximation ratio vs proven bound
//	F1  Energy relative to Continuous vs deadline factor β (D = β·Dmin)
//	F2  Energy relative to Continuous vs number of modes m
//	F3  Incremental-optimum energy ratio vs δ, against the (1+δ/smin)² bound
//	F4  Theorem 5 algorithm: measured ratio vs K, with bound
//	F5  Solver wall-clock time (ms) vs n
//	A1  Speed-control granularity: per-task vs per-processor vs global (continuous optima)
//	A2  Power exponent α: closed form vs numeric, and the reclaiming gain
//	A3  Mapping sensitivity: continuous-optimal energy for three given mappings (same absolute deadline)
//	A4  Vdd-Hopping vs Incremental: energy vs mid-task switching (ratios to continuous)
//
// T1–T5 live in experiments.go, F1–F5 in figures.go and A1–A4 in
// ablations.go; cmd/experiments runs the suite.
package exps

import (
	"fmt"
	"strings"
)

// Table is a titled grid of rendered cells, exportable as Markdown or CSV.
type Table struct {
	ID      string // experiment identifier, e.g. "T1" or "F3"
	Title   string
	Columns []string
	Rows    [][]string
	// Notes holds expected-shape commentary appended below the table.
	Notes []string
}

// Add appends a row; the cell count must match the column count.
func (t *Table) Add(cells ...string) {
	if len(cells) != len(t.Columns) {
		panic(fmt.Sprintf("exps: row with %d cells for %d columns in %s", len(cells), len(t.Columns), t.ID))
	}
	t.Rows = append(t.Rows, cells)
}

// Addf appends a row of formatted values: strings pass through, float64
// render with %.4g, ints with %d.
func (t *Table) Addf(values ...interface{}) {
	cells := make([]string, len(values))
	for i, v := range values {
		switch x := v.(type) {
		case string:
			cells[i] = x
		case float64:
			cells[i] = fmt.Sprintf("%.4g", x)
		case int:
			cells[i] = fmt.Sprintf("%d", x)
		case bool:
			if x {
				cells[i] = "yes"
			} else {
				cells[i] = "no"
			}
		default:
			cells[i] = fmt.Sprintf("%v", x)
		}
	}
	t.Add(cells...)
}

// Markdown renders the table as GitHub-flavored Markdown.
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", t.ID, t.Title)
	b.WriteString("| " + strings.Join(t.Columns, " | ") + " |\n")
	seps := make([]string, len(t.Columns))
	for i := range seps {
		seps[i] = "---"
	}
	b.WriteString("| " + strings.Join(seps, " | ") + " |\n")
	for _, row := range t.Rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "\n> %s\n", n)
	}
	return b.String()
}

// CSV renders the table as comma-separated values with a header row.
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.Columns, ",") + "\n")
	for _, row := range t.Rows {
		quoted := make([]string, len(row))
		for i, c := range row {
			if strings.ContainsAny(c, ",\"\n") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			quoted[i] = c
		}
		b.WriteString(strings.Join(quoted, ",") + "\n")
	}
	return b.String()
}
