package experiments

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/stats"
)

// TestCellCacheStaysBounded pins the cell cache's constant bound: far
// more distinct cells than maxCells keep the cache at the bound, and a
// cell still in flight survives the flood instead of being evicted.
func TestCellCacheStaysBounded(t *testing.T) {
	if maxCells != 4096 {
		t.Fatalf("maxCells = %d, want 4096", maxCells)
	}
	s := NewSuite(1024)
	ctx := context.Background()

	held := cellKey{scale: s.Scale, job: Job{Kind: KindHomogeneous, Name: "held", Sys: core.SIMD}}
	started, release := make(chan struct{}), make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, err := s.cells.Await(ctx, held, func(context.Context) (*stats.Result, error) {
			close(started)
			<-release
			return &stats.Result{}, nil
		})
		done <- err
	}()
	<-started

	// Cells of unknown applications fail fast, and a failure is cached
	// like a result, so they fill the cache cheaply.
	for i := 0; i < maxCells+100; i++ {
		j := Job{Kind: KindHomogeneous, Name: fmt.Sprintf("NO-SUCH-APP-%d", i), Sys: core.SIMD}
		if _, err := s.Run(ctx, j); err == nil {
			t.Fatalf("%s: want an unknown-application error", j)
		}
		if n := s.cells.Stats().Len; n > maxCells {
			t.Fatalf("after %d cells the cache holds %d, bound %d", i+1, n, maxCells)
		}
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if _, err := s.cells.Await(ctx, held, func(context.Context) (*stats.Result, error) {
		t.Error("the in-flight cell was evicted by the flood")
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestFaultCellsKeyedByPlan: the scenario name does not identify a fault
// cell, its plan does. Two views naming different plans "x" get
// different cells, and SetFaultScenarios after a Run re-keys the name to
// the new plan's cell.
func TestFaultCellsKeyedByPlan(t *testing.T) {
	ctx := context.Background()
	plan := func(name string) []FaultScenario {
		p, err := faults.Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		return []FaultScenario{{Name: "x", Plan: p}}
	}
	job := Job{Kind: KindFault, Mix: FaultMix, Sys: ClusterSys, Fault: "x", Devices: FaultDevices, Policy: cluster.WorkSteal}

	root := NewSuite(512)
	loss, err := root.With(512, 0, plan("cardloss")).Run(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	flap, err := root.With(512, 0, plan("flap")).Run(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	if loss == flap || reflect.DeepEqual(loss.Faults, flap.Faults) {
		t.Fatal("views naming different plans \"x\" shared one fault cell")
	}
	// Each view's cell is exactly what a fresh suite computes for its plan.
	fresh := NewSuite(512)
	fresh.SetFaultScenarios(plan("flap"))
	want, err := fresh.Run(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(flap, want) {
		t.Fatal("shared-cache flap cell differs from a fresh suite's")
	}

	// Re-pointing "x" after a Run yields the new plan's result.
	root.SetFaultScenarios(plan("cardloss"))
	if r, err := root.Run(ctx, job); err != nil || r != loss {
		t.Fatalf("root under cardloss = %p, %v; want the cardloss view's cell %p", r, err, loss)
	}
	root.SetFaultScenarios(plan("flap"))
	if r, err := root.Run(ctx, job); err != nil || r != flap {
		t.Fatalf("root re-set to flap = %p, %v; want the flap view's cell %p", r, err, flap)
	}
}

// TestViewsShareCells: views at the same scale share every cell whatever
// their device cap, and a view at another scale never sees them.
func TestViewsShareCells(t *testing.T) {
	ctx := context.Background()
	root := NewSuite(512)
	j := Job{Kind: KindHomogeneous, Name: "ATAX", Sys: core.IntraO3}
	a, err := root.With(512, 1, nil).Run(ctx, j)
	if err != nil {
		t.Fatal(err)
	}
	if b, err := root.With(512, 8, nil).Run(ctx, j); err != nil || b != a {
		t.Fatalf("device cap 8 view re-simulated the cell (%p vs %p, %v)", b, a, err)
	}
	c, err := root.With(1024, 1, nil).Run(ctx, j)
	if err != nil {
		t.Fatal(err)
	}
	if c == a || c.Bytes == a.Bytes {
		t.Fatal("a view at another scale aliased the scale-512 cell")
	}
}
