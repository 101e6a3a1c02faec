// Package report renders experiment results as aligned ASCII tables and
// series, matching the rows the paper's tables and figures present.
package report

import (
	"fmt"
	"strings"
)

// Table is a titled grid.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// Add appends a row, formatting each cell with %v (floats as %.4g unless
// already strings).
func (t *Table) Add(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		case float32:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			for i >= len(widths) {
				widths = append(widths, 0)
			}
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
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
	if len(t.Header) > 0 {
		line(t.Header)
		total := 0
		for _, w := range widths {
			total += w + 2
		}
		b.WriteString(strings.Repeat("-", total))
		b.WriteByte('\n')
	}
	for _, r := range t.Rows {
		line(r)
	}
	return b.String()
}

// Series renders a sampled time series (Fig. 15): samples[k] is the value
// of bin k*stride, labelled with that bin's start time.
func Series(title string, binNs int64, samples []float64, stride int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", title)
	if stride < 1 {
		stride = 1
	}
	for k, v := range samples {
		fmt.Fprintf(&b, "%8.1fus  %8.2f\n", float64(int64(k*stride)*binNs)/1e3, v)
	}
	return b.String()
}
