// Package report renders experiment results as aligned ASCII tables
// and CSV — the textual equivalents of the paper's figures that the
// repro harness and CLIs print.
package report

import (
	"fmt"
	"io"
	"math"
	"strings"

	"herald/internal/stats"
)

// Table is a titled grid of string cells.
type Table struct {
	Title   string
	Notes   []string
	Columns []string
	Rows    [][]string
}

// NewTable returns an empty table with the given title and columns.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: append([]string(nil), columns...)}
}

// AddRow appends one row; the cell count must match the column count.
func (t *Table) AddRow(cells ...string) *Table {
	if len(cells) != len(t.Columns) {
		panic(fmt.Sprintf("report: row has %d cells, table has %d columns", len(cells), len(t.Columns)))
	}
	t.Rows = append(t.Rows, append([]string(nil), cells...))
	return t
}

// AddNote appends a free-form footnote rendered under the table.
func (t *Table) AddNote(format string, args ...any) *Table {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
	return t
}

// WriteTo renders the table with aligned columns.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	if t.Title != "" {
		sb.WriteString(t.Title)
		sb.WriteByte('\n')
		sb.WriteString(strings.Repeat("=", len(t.Title)))
		sb.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			sb.WriteString(strings.Repeat(" ", widths[i]-len(c)))
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Columns)
	total := 0
	for _, w := range widths {
		total += w
	}
	sb.WriteString(strings.Repeat("-", total+2*(len(widths)-1)))
	sb.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		sb.WriteString("note: ")
		sb.WriteString(n)
		sb.WriteByte('\n')
	}
	n, err := io.WriteString(w, sb.String())
	return int64(n), err
}

// String renders the table to a string.
func (t *Table) String() string {
	var sb strings.Builder
	if _, err := t.WriteTo(&sb); err != nil {
		return ""
	}
	return sb.String()
}

// CSV writes the table as RFC-4180-ish CSV (quotes only where needed).
func (t *Table) CSV(w io.Writer) error {
	write := func(cells []string) error {
		for i, c := range cells {
			if i > 0 {
				if _, err := io.WriteString(w, ","); err != nil {
					return err
				}
			}
			if strings.ContainsAny(c, ",\"\n") {
				c = `"` + strings.ReplaceAll(c, `"`, `""`) + `"`
			}
			if _, err := io.WriteString(w, c); err != nil {
				return err
			}
		}
		_, err := io.WriteString(w, "\n")
		return err
	}
	if err := write(t.Columns); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := write(row); err != nil {
			return err
		}
	}
	return nil
}

// F formats a float compactly (%.6g), the standard cell format.
func F(v float64) string {
	if math.IsInf(v, 1) {
		return "inf"
	}
	return fmt.Sprintf("%.6g", v)
}

// F3 formats a float with three decimals; used for nines columns.
func F3(v float64) string {
	if math.IsInf(v, 1) {
		return "inf"
	}
	return fmt.Sprintf("%.3f", v)
}

// MCNines formats a Monte-Carlo availability and its confidence
// half-width as a nines cell: F3 of the estimate's nines, or, for a
// run that saw no downtime (availability exactly 1), ">= " and the
// nines of its interval's lower end 1 - halfWidth. A half-width
// outside (0, 1), +Inf and NaN included, bounds nothing and prints "-".
func MCNines(availability, halfWidth float64) string {
	if availability != 1 {
		return F3(stats.Nines(availability))
	}
	if !(halfWidth > 0 && halfWidth < 1) {
		return "-"
	}
	return ">= " + F3(stats.Nines(1-halfWidth))
}

// E formats a float in scientific notation with two decimals; used for
// rates and unavailability magnitudes.
func E(v float64) string {
	if math.IsInf(v, 1) {
		return "inf"
	}
	return fmt.Sprintf("%.2e", v)
}

// B formats a boolean as yes/no.
func B(v bool) string {
	if v {
		return "yes"
	}
	return "no"
}
