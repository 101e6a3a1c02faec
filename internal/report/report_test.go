package report

import (
	"strings"
	"testing"
)

func TestTableAlignment(t *testing.T) {
	tbl := &Table{Title: "demo", Header: []string{"name", "value"}}
	tbl.Add("short", 1)
	tbl.Add("a-much-longer-name", 2.5)
	out := tbl.String()
	if !strings.Contains(out, "== demo ==") {
		t.Error("title missing")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, two rows
		t.Fatalf("lines = %d: %q", len(lines), out)
	}
	// The value column starts at the same offset in both rows.
	if strings.Index(lines[3], "1") != strings.Index(lines[4], "2.50") {
		t.Errorf("columns misaligned:\n%s", out)
	}
}

func TestTableCellFormatting(t *testing.T) {
	tbl := &Table{}
	tbl.Add("s", 3, 2.5, float32(1.25))
	row := tbl.Rows[0]
	if row[0] != "s" || row[1] != "3" || row[2] != "2.50" || row[3] != "1.25" {
		t.Errorf("row = %v", row)
	}
}

func TestTableNoHeader(t *testing.T) {
	tbl := &Table{}
	tbl.Add("x")
	if strings.Contains(tbl.String(), "---") {
		t.Error("rule printed without header")
	}
}

func TestSeries(t *testing.T) {
	out := Series("power", 1000, []float64{1, 3}, 2) // bins 0 and 2
	if !strings.Contains(out, "== power ==") {
		t.Error("title missing")
	}
	if strings.Count(out, "\n") != 3 { // title + 2 sampled points
		t.Errorf("sample count wrong: %q", out)
	}
	if !strings.Contains(out, "     2.0us      3.00\n") {
		t.Errorf("stride not applied to labels: %q", out)
	}
	// Stride below one is clamped.
	all := Series("p", 1000, []float64{1, 2}, 0)
	if strings.Count(all, "\n") != 3 || !strings.Contains(all, "     1.0us      2.00\n") {
		t.Errorf("clamped stride wrong: %q", all)
	}
}
