package experiments

import (
	"context"
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestRenderReadsOnlyListedCells renders every experiment, the scale-out
// studies included, through Render's restricted views: a render that
// reads a cell its record does not list fails under its id.
func TestRenderReadsOnlyListedCells(t *testing.T) {
	for _, devices := range []int{1, 8} {
		for _, workers := range []int{1, 0} {
			s := NewSuite(256)
			s.MaxDevices = devices
			s.Workers = workers
			if err := s.Render(context.Background(), io.Discard, List()); err != nil {
				t.Errorf("devices %d workers %d: %v", devices, workers, err)
			}
		}
	}
}

// TestViewRejectsUnlistedCell: a view's lookup of a cell its experiment
// does not list names the experiment and the cell, and simulates nothing.
// A listed one-card cluster cell still resolves: it aliases the unlisted
// single-device cell, which it reads through the shared cache.
func TestViewRejectsUnlistedCell(t *testing.T) {
	ctx := context.Background()
	s := NewSuite(256)
	v, err := s.view(ctx, "t1", nil)
	if err != nil {
		t.Fatal(err)
	}
	j := Job{Kind: KindHomogeneous, Name: "ATAX", Sys: core.SIMD}
	if _, err := v.Run(ctx, j); err == nil || !strings.Contains(err.Error(), "t1") || !strings.Contains(err.Error(), j.String()) {
		t.Fatalf("err = %v, want one naming t1 and %s", err, j)
	}
	if st := s.cells.Stats(); st.Misses != 0 {
		t.Errorf("rejected lookup simulated %d cells", st.Misses)
	}
	c := Job{Kind: KindCluster, Name: "ATAX", Sys: ClusterSys, Devices: 1}
	if v, err = s.view(ctx, "cluster", []Job{c}); err != nil {
		t.Fatal(err)
	}
	if r, err := v.Run(ctx, c); err != nil || r == nil {
		t.Errorf("listed one-card cluster cell: %v, %v", r, err)
	}
}

// TestSelectAll pins which experiments "all" opts in for each device
// count and scale-out flag.
func TestSelectAll(t *testing.T) {
	base := []string{"t1", "t2", "mixes", "fig3b", "fig3c", "fig3d", "fig3e",
		"fig10a", "fig10b", "fig11a", "fig11b", "fig12", "fig13a", "fig13b",
		"fig14a", "fig14b", "fig15", "fig16a", "fig16b"}
	for _, tc := range []struct {
		devices          int
		topology, faults bool
		extra            []string
	}{
		{1, false, false, nil},
		{1, false, true, []string{"faults"}},
		{1, true, false, []string{"topology"}},
		{1, true, true, []string{"topology", "faults"}},
		{8, false, false, []string{"cluster"}},
		{8, false, true, []string{"cluster", "faults"}},
		{8, true, false, []string{"cluster", "topology"}},
		{8, true, true, []string{"cluster", "topology", "faults"}},
	} {
		sel, err := Select("all", tc.devices, tc.topology, tc.faults)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, e := range sel {
			got = append(got, e.ID)
		}
		want := append(append([]string(nil), base...), tc.extra...)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("devices %d topology %v faults %v: %v, want %v",
				tc.devices, tc.topology, tc.faults, got, want)
		}
	}
	if sel, err := Select("cluster", 1, false, false); err != nil || len(sel) != 1 {
		t.Errorf("Select(cluster) = %d experiments, %v; want the one", len(sel), err)
	}
	if _, err := Select("fig99", 1, false, false); err == nil || !strings.Contains(err.Error(), "fig10a") {
		t.Errorf("Select(fig99) err = %v, want one listing the valid ids", err)
	}
}

// TestScaleZeroFails: a suite below scale 1 reports the workload error
// instead of running some other scale.
func TestScaleZeroFails(t *testing.T) {
	ctx := context.Background()
	s := NewSuite(0)
	if _, err := s.Run(ctx, Job{Kind: KindHomogeneous, Name: "ATAX", Sys: core.IntraO3}); err == nil || !strings.Contains(err.Error(), "below 1") {
		t.Errorf("Run err = %v, want scale below 1", err)
	}
	if _, err := s.Fig3Points(ctx); err == nil || !strings.Contains(err.Error(), "below 1") {
		t.Errorf("Fig3Points err = %v, want scale below 1", err)
	}
	sel, err := Select("fig10a", 1, false, false)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := s.Render(ctx, &out, sel); err == nil || !strings.Contains(err.Error(), "below 1") {
		t.Errorf("Render err = %v, want scale below 1", err)
	}
	if out.Len() != 0 {
		t.Errorf("failed render printed %d bytes", out.Len())
	}
	if v := NewSuite(16).With(0, 1, nil); v.Scale != 0 {
		t.Errorf("With(0) scale = %d, want 0", v.Scale)
	}
}
