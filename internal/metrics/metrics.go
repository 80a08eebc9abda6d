// Package metrics is the repo's plain-text table renderer plus two wall-clock
// helpers. It has two callers: the experiment runner (cmd/gfbench) prints its
// paper-vs-measured tables through Table and times its rows with Time/TimeN,
// and telemetry.Registry.Table renders the -metrics output of every command
// through the same Table. Nothing here gates performance — bench/ and the Go
// shape tests do.
package metrics

import (
	"fmt"
	"strings"
	"time"
)

// Table accumulates rows and renders them with aligned columns.
type Table struct {
	Title   string
	headers []string
	rows    [][]string
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, headers: headers}
}

// Row appends a row; cells are rendered with %v, durations compactly.
func (t *Table) Row(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case time.Duration:
			row[i] = FormatDuration(v)
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.headers)
	seps := make([]string, len(t.headers))
	for i := range seps {
		seps[i] = strings.Repeat("-", widths[i])
	}
	line(seps)
	for _, row := range t.rows {
		line(row)
	}
	return b.String()
}

// FormatDuration renders d with three significant figures and a compact
// unit, keeping table columns narrow.
func FormatDuration(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
	case d >= time.Microsecond:
		return fmt.Sprintf("%.2fµs", float64(d.Nanoseconds())/1000)
	}
	return fmt.Sprintf("%dns", d.Nanoseconds())
}

// Time runs fn and returns its wall-clock duration.
func Time(fn func()) time.Duration {
	start := time.Now()
	fn()
	return time.Since(start)
}

// TimeN runs fn reps times and returns the minimum duration — the standard
// way to damp scheduler noise in coarse harness measurements (the Go
// benchmark framework handles the precise ones).
func TimeN(reps int, fn func()) time.Duration {
	best := time.Duration(0)
	for i := 0; i < reps; i++ {
		d := Time(fn)
		if i == 0 || d < best {
			best = d
		}
	}
	return best
}
