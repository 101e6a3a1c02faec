package experiments

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// testScale shrinks Table 2 inputs 64× so the full suite runs in seconds.
const testScale = 64

func TestTable1AndTable2Render(t *testing.T) {
	t1 := Table1().String()
	for _, want := range []string{"LWP", "Scratchpad", "DDR3L", "32.0GB", "PCIe"} {
		if !strings.Contains(t1, want) {
			t.Errorf("Table 1 missing %q", want)
		}
	}
	t2 := Table2().String()
	for _, want := range []string{"ATAX", "CORR", "data-intensive", "compute-intensive"} {
		if !strings.Contains(t2, want) {
			t.Errorf("Table 2 missing %q", want)
		}
	}
	if !strings.Contains(TableMixes().String(), "MX14") {
		t.Error("mix table missing MX14")
	}
}

func TestFig3SensitivityShape(t *testing.T) {
	points, err := NewSuite(16).Fig3Points(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 8*len(SerialRatios) {
		t.Fatalf("points = %d", len(points))
	}
	get := func(cores, pct int) Fig3Point {
		for _, p := range points {
			if p.Cores == cores && p.SerialPct == pct {
				return p
			}
		}
		t.Fatalf("missing point %d/%d", cores, pct)
		return Fig3Point{}
	}
	// Ideal scaling at 0% serial: 8 cores ≈ 8× one core.
	if s := get(8, 0).Throughput / get(1, 0).Throughput; s < 6 {
		t.Errorf("0%% serial speedup at 8 cores = %.1f, want near 8", s)
	}
	// Amdahl: 50% serial at 8 cores utilizes ~22% of the cores.
	if u := get(8, 50).Util; u < 0.12 || u > 0.35 {
		t.Errorf("50%% serial 8-core utilization = %.2f, want ~0.22", u)
	}
	// Utilization monotonically drops with serial fraction.
	if get(8, 0).Util < get(8, 30).Util || get(8, 30).Util < get(8, 50).Util {
		t.Error("utilization not decreasing with serial fraction")
	}
	// Tables render.
	if !strings.Contains(Fig3bTable(points).String(), "serial 50%") {
		t.Error("Fig 3b table malformed")
	}
	if !strings.Contains(Fig3cTable(points).String(), "cores") {
		t.Error("Fig 3c table malformed")
	}
}

func TestHomogeneousHeadlineShapes(t *testing.T) {
	s := NewSuite(testScale)
	// Data-intensive ATAX: every FlashAbacus mode beats SIMD.
	simd, err := s.Homogeneous(context.Background(), "ATAX", core.SIMD)
	if err != nil {
		t.Fatal(err)
	}
	for _, sys := range core.FlashAbacusSystems {
		r, err := s.Homogeneous(context.Background(), "ATAX", sys)
		if err != nil {
			t.Fatal(err)
		}
		if r.ThroughputMBps() <= simd.ThroughputMBps() {
			t.Errorf("%v (%.1f MB/s) not above SIMD (%.1f MB/s) on ATAX",
				sys, r.ThroughputMBps(), simd.ThroughputMBps())
		}
	}
	// InterDy well above InterSt on homogeneous work (Fig. 10a).
	st, _ := s.Homogeneous(context.Background(), "ATAX", core.InterSt)
	dy, _ := s.Homogeneous(context.Background(), "ATAX", core.InterDy)
	if dy.ThroughputMBps() < 1.4*st.ThroughputMBps() {
		t.Errorf("InterDy %.1f not well above InterSt %.1f",
			dy.ThroughputMBps(), st.ThroughputMBps())
	}
	// IntraO3 within a modest margin of InterDy (paper: ~2%).
	o3, _ := s.Homogeneous(context.Background(), "ATAX", core.IntraO3)
	if o3.ThroughputMBps() < 0.75*dy.ThroughputMBps() {
		t.Errorf("IntraO3 %.1f too far below InterDy %.1f",
			o3.ThroughputMBps(), dy.ThroughputMBps())
	}
}

func TestEnergyHeadline(t *testing.T) {
	s := NewSuite(testScale)
	simd, err := s.Homogeneous(context.Background(), "ATAX", core.SIMD)
	if err != nil {
		t.Fatal(err)
	}
	o3, err := s.Homogeneous(context.Background(), "ATAX", core.IntraO3)
	if err != nil {
		t.Fatal(err)
	}
	if o3.Energy.Total() >= simd.Energy.Total() {
		t.Errorf("IntraO3 energy %.2fJ not below SIMD %.2fJ",
			o3.Energy.Total(), simd.Energy.Total())
	}
}

func TestHeterogeneousShapes(t *testing.T) {
	s := NewSuite(testScale)
	simd, err := s.Heterogeneous(context.Background(), 1, core.SIMD)
	if err != nil {
		t.Fatal(err)
	}
	o3, err := s.Heterogeneous(context.Background(), 1, core.IntraO3)
	if err != nil {
		t.Fatal(err)
	}
	dy, err := s.Heterogeneous(context.Background(), 1, core.InterDy)
	if err != nil {
		t.Fatal(err)
	}
	if o3.ThroughputMBps() <= simd.ThroughputMBps() {
		t.Error("IntraO3 not above SIMD on MX1")
	}
	if o3.ThroughputMBps() < 0.9*dy.ThroughputMBps() {
		t.Errorf("IntraO3 (%.1f) should be at least competitive with InterDy (%.1f) on mixes",
			o3.ThroughputMBps(), dy.ThroughputMBps())
	}
	if len(simd.CompletionTimes) != 24 {
		t.Errorf("MX1 completions = %d, want 24 instances", len(simd.CompletionTimes))
	}
}

func TestFig15SeriesProduced(t *testing.T) {
	s := NewSuite(testScale * 2)
	res, err := s.Fig15(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"SIMD", "IntraO3"} {
		r := res[name]
		if r == nil || r.FU.Len() == 0 || r.Power.Len() == 0 {
			t.Fatalf("%s series missing", name)
		}
	}
	// SIMD's storage phases spike host power well above IntraO3's peaks.
	maxOf := func(v []float64) float64 {
		m := 0.0
		for _, x := range v {
			if x > m {
				m = x
			}
		}
		return m
	}
	if maxOf(res["SIMD"].Power.Sample(1)) <= maxOf(res["IntraO3"].Power.Sample(1)) {
		t.Error("SIMD peak power should exceed IntraO3 (host storage stack engaged)")
	}
}

func TestFig16Bigdata(t *testing.T) {
	s := NewSuite(testScale)
	tbl, err := s.Fig16a(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	out := tbl.String()
	for _, name := range workload.BigdataNames() {
		if !strings.Contains(out, name) {
			t.Errorf("Fig 16a missing %s", name)
		}
	}
	// FlashAbacus dynamic modes beat SIMD on these data-intensive apps.
	simd, _ := s.Bigdata(context.Background(), "bfs", core.SIMD)
	dy, _ := s.Bigdata(context.Background(), "bfs", core.InterDy)
	if dy.ThroughputMBps() <= simd.ThroughputMBps() {
		t.Error("InterDy not above SIMD on bfs")
	}
}

func TestAllFigureTablesRender(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure sweep in short mode")
	}
	s := NewSuite(testScale * 2)
	type gen func() (interface{ String() string }, error)
	figs := map[string]gen{
		"3d":  func() (interface{ String() string }, error) { return s.Fig3d(context.Background()) },
		"3e":  func() (interface{ String() string }, error) { return s.Fig3e(context.Background()) },
		"10a": func() (interface{ String() string }, error) { return s.Fig10a(context.Background()) },
		"10b": func() (interface{ String() string }, error) { return s.Fig10b(context.Background()) },
		"11a": func() (interface{ String() string }, error) { return s.Fig11a(context.Background()) },
		"11b": func() (interface{ String() string }, error) { return s.Fig11b(context.Background()) },
		"12":  func() (interface{ String() string }, error) { return s.Fig12(context.Background()) },
		"13a": func() (interface{ String() string }, error) { return s.Fig13a(context.Background()) },
		"13b": func() (interface{ String() string }, error) { return s.Fig13b(context.Background()) },
		"14a": func() (interface{ String() string }, error) { return s.Fig14a(context.Background()) },
		"14b": func() (interface{ String() string }, error) { return s.Fig14b(context.Background()) },
		"16a": func() (interface{ String() string }, error) { return s.Fig16a(context.Background()) },
		"16b": func() (interface{ String() string }, error) { return s.Fig16b(context.Background()) },
	}
	for name, fn := range figs {
		tbl, err := fn()
		if err != nil {
			t.Fatalf("fig %s: %v", name, err)
		}
		if len(tbl.String()) == 0 {
			t.Errorf("fig %s rendered empty", name)
		}
	}
}
