package experiments

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
)

// TestPrewarmParallelMatchesSequential is the engine's determinism
// guarantee: a parallel Prewarm must yield figures byte-identical to a
// sequential run, because results are keyed by cell, never by completion
// order.
func TestPrewarmParallelMatchesSequential(t *testing.T) {
	ctx := context.Background()
	jobs := cellsOf("fig12")
	if len(jobs) != 10 {
		t.Fatalf("fig12 needs %d cells, want 10", len(jobs))
	}

	render := func(workers int) string {
		s := NewSuite(256)
		s.Workers = workers
		if err := s.Prewarm(ctx, jobs); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		tbl, err := s.Fig12(ctx)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return tbl.String()
	}

	seq := render(1)
	par := render(8)
	if seq != par {
		t.Errorf("parallel Fig 12 differs from sequential:\n--- sequential ---\n%s\n--- parallel ---\n%s", seq, par)
	}
}

// TestSuiteSingleFlight asserts each (workload, system) cell simulates
// exactly once even when many goroutines race for it: every caller must
// get the same *stats.Result back.
func TestSuiteSingleFlight(t *testing.T) {
	s := NewSuite(512)
	const callers = 8
	results := make([]interface{}, callers)
	var wg sync.WaitGroup
	wg.Add(callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			defer wg.Done()
			r, err := s.Homogeneous(context.Background(), "ATAX", core.IntraO3)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = r
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if results[i] != results[0] {
			t.Fatalf("caller %d got a different result instance — cell simulated more than once", i)
		}
	}
}

func TestPrewarmCancelledThenRetries(t *testing.T) {
	s := NewSuite(512)
	jobs := []Job{{Kind: KindHomogeneous, Name: "ATAX", Sys: core.SIMD}}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.Prewarm(ctx, jobs); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Cancellation must not poison the cache: a live context succeeds.
	if err := s.Prewarm(context.Background(), jobs); err != nil {
		t.Fatalf("retry after cancellation: %v", err)
	}
}

func TestPrewarmFirstErrorWins(t *testing.T) {
	s := NewSuite(512)
	s.Workers = 4
	jobs := []Job{
		{Kind: KindHomogeneous, Name: "NO-SUCH-APP", Sys: core.SIMD},
		{Kind: KindHomogeneous, Name: "ATAX", Sys: core.SIMD},
		{Kind: KindHeterogeneous, Mix: 1, Sys: core.IntraO3},
	}
	err := s.Prewarm(context.Background(), jobs)
	if err == nil || !strings.Contains(err.Error(), "NO-SUCH-APP") {
		t.Fatalf("err = %v, want the bad job's own error", err)
	}
}

func TestCellsForDedupAndDeterminism(t *testing.T) {
	// fig10a and fig11a consume the identical cell set; the union must not
	// double it.
	s := NewSuite(16)
	once := s.CellsFor([]string{"fig10a"})
	both := s.CellsFor([]string{"fig10a", "fig11a"})
	if len(once) == 0 || len(once) != len(both) {
		t.Fatalf("dedup failed: %d cells alone vs %d unioned", len(once), len(both))
	}
	all := s.CellsFor(IDs())
	seen := map[Job]bool{}
	for _, j := range all {
		if seen[j] {
			t.Fatalf("duplicate cell %s in CellsFor output", j)
		}
		seen[j] = true
	}
	again := s.CellsFor(IDs())
	if len(again) != len(all) {
		t.Fatal("CellsFor not deterministic across calls")
	}
	for i := range all {
		if all[i] != again[i] {
			t.Fatalf("CellsFor order differs at %d: %s vs %s", i, all[i], again[i])
		}
	}
	for _, id := range []string{"t1", "t2", "mixes", "bogus"} {
		if c := cellsOf(id); c != nil {
			t.Errorf("cells of %q = %d jobs, want none", id, len(c))
		}
	}
	// The sweep and series experiments are ordinary cells now: one Prewarm
	// list covers a full reproduction with no special-case warm phases.
	if c := cellsOf("fig3b"); len(c) != 48 {
		t.Errorf("cells of fig3b = %d jobs, want 48", len(c))
	}
	if c := cellsOf("fig3c"); len(c) != 48 {
		t.Errorf("cells of fig3c = %d jobs, want 48", len(c))
	}
	if c := cellsOf("fig15"); len(c) != 2 {
		t.Errorf("cells of fig15 = %d jobs, want 2", len(c))
	}
}

func TestFig3PointsSharedAcrossCallers(t *testing.T) {
	s := NewSuite(1024)
	ctx := context.Background()
	p1, err := s.Fig3Points(ctx)
	if err != nil {
		t.Fatal(err)
	}
	before := s.cells.Stats()
	p2, err := s.Fig3Points(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if after := s.cells.Stats(); after.Misses != before.Misses {
		t.Errorf("second sweep simulated %d cells, want 0", after.Misses-before.Misses)
	}
	if len(p1) == 0 || !reflect.DeepEqual(p1, p2) {
		t.Error("second sweep assembled different points")
	}
}
