// Package experiments regenerates every evaluation figure of the
// paper (Figures 8-12) plus the ablations called out in DESIGN.md.
// The simulations behind them are the cells of one Grid, each run at
// most once; an experiment declares its cells and projects its columns
// from their results into Tables that render as aligned text,
// markdown, or CSV. cmd/subtrav-bench prints them and EXPERIMENTS.md
// records paper-vs-measured shapes.
package experiments

import (
	"fmt"
	"strings"
)

// Table is a printable experiment result.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
	// Notes record the workload parameters and the paper's expected
	// shape for side-by-side comparison.
	Notes []string
}

// AddRow appends a formatted row; values are rendered with %v, floats
// with 1 decimal.
func (t *Table) AddRow(values ...interface{}) {
	row := make([]string, len(values))
	for i, v := range values {
		switch x := v.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.1f", x)
		case string:
			row[i] = x
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Text renders the table with aligned columns.
func (t *Table) Text() string {
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
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
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
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Markdown renders the table as a GitHub-flavored markdown table.
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s\n\n", t.Title)
	b.WriteString("| " + strings.Join(t.Columns, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat("---|", len(t.Columns)) + "\n")
	for _, row := range t.Rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	if len(t.Notes) > 0 {
		b.WriteByte('\n')
		for _, n := range t.Notes {
			fmt.Fprintf(&b, "- %s\n", n)
		}
	}
	return b.String()
}

// CSV renders the table as comma-separated values (quoted cells when
// needed).
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(cell, ",\"\n") {
				b.WriteString(`"` + strings.ReplaceAll(cell, `"`, `""`) + `"`)
			} else {
				b.WriteString(cell)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// Cell returns the cell at (row, col) — a test convenience.
func (t *Table) Cell(row, col int) string { return t.Rows[row][col] }
