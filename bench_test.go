package flashabacus

// One benchmark per table and figure of the paper's evaluation, plus the
// ablation benches DESIGN.md calls out. Each figure bench regenerates its
// experiment at benchScale (the paper's input sizes divided by benchScale)
// and reports the headline quantity as a custom metric, so
// `go test -bench=.` both exercises the harness and prints the shape
// results next to the timings.

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/units"
	"repro/internal/workload"
)

// benchScale divides Table 2 input sizes for the figure benches.
const benchScale = 128

func BenchmarkTable1Spec(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiments.Table1().String() == "" {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable2Workloads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiments.Table2().String() == "" {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkFig3bThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(benchScale)
		s.Workers = 1
		points, err := s.Fig3Points(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range points {
			if p.Cores == 8 && p.SerialPct == 0 {
				b.ReportMetric(p.Throughput, "GB/s@8c-0%serial")
			}
		}
	}
}

func BenchmarkFig3cUtilization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(benchScale)
		s.Workers = 1
		points, err := s.Fig3Points(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range points {
			if p.Cores == 8 && p.SerialPct == 30 {
				b.ReportMetric(p.Util*100, "util%@8c-30%serial")
			}
		}
	}
}

func BenchmarkFig3dBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(benchScale)
		if _, err := s.Fig3d(context.Background()); err != nil {
			b.Fatal(err)
		}
		r, _ := s.Homogeneous(context.Background(), "ATAX", core.SIMD)
		_, ssd, stack := r.BreakdownFracs()
		b.ReportMetric((ssd+stack)*100, "ATAX-storage-time%")
	}
}

func BenchmarkFig3eEnergy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(benchScale)
		if _, err := s.Fig3e(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10aHomogeneous(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(benchScale)
		if _, err := s.Fig10a(context.Background()); err != nil {
			b.Fatal(err)
		}
		simd, _ := s.Homogeneous(context.Background(), "ATAX", core.SIMD)
		o3, _ := s.Homogeneous(context.Background(), "ATAX", core.IntraO3)
		b.ReportMetric(o3.ThroughputMBps()/simd.ThroughputMBps(), "ATAX-IntraO3/SIMD")
	}
}

func BenchmarkFig10bHeterogeneous(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(benchScale)
		if _, err := s.Fig10b(context.Background()); err != nil {
			b.Fatal(err)
		}
		dy, _ := s.Heterogeneous(context.Background(), 1, core.InterDy)
		o3, _ := s.Heterogeneous(context.Background(), 1, core.IntraO3)
		b.ReportMetric(o3.ThroughputMBps()/dy.ThroughputMBps(), "MX1-IntraO3/InterDy")
	}
}

func BenchmarkFig11aLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(benchScale)
		if _, err := s.Fig11a(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11bLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(benchScale)
		if _, err := s.Fig11b(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig12aCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(benchScale)
		r, err := s.Homogeneous(context.Background(), "ATAX", core.IntraO3)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.CDF()) != 6 {
			b.Fatal("ATAX should complete 6 kernel instances")
		}
	}
}

func BenchmarkFig12bCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(benchScale)
		r, err := s.Heterogeneous(context.Background(), 1, core.IntraO3)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.CDF()) != 24 {
			b.Fatal("MX1 should complete 24 kernel instances")
		}
	}
}

func BenchmarkFig13aEnergy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(benchScale)
		if _, err := s.Fig13a(context.Background()); err != nil {
			b.Fatal(err)
		}
		simd, _ := s.Homogeneous(context.Background(), "ATAX", core.SIMD)
		o3, _ := s.Homogeneous(context.Background(), "ATAX", core.IntraO3)
		b.ReportMetric((1-o3.Energy.Total()/simd.Energy.Total())*100, "ATAX-energy-saving%")
	}
}

func BenchmarkFig13bEnergy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(benchScale)
		if _, err := s.Fig13b(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig14aUtilization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(benchScale)
		if _, err := s.Fig14a(context.Background()); err != nil {
			b.Fatal(err)
		}
		dy, _ := s.Homogeneous(context.Background(), "ATAX", core.InterDy)
		b.ReportMetric(dy.WorkerUtil*100, "ATAX-InterDy-util%")
	}
}

func BenchmarkFig14bUtilization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(benchScale)
		if _, err := s.Fig14b(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig15aFUSeries(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(benchScale)
		res, err := s.Fig15(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if res["IntraO3"].FU.Len() == 0 {
			b.Fatal("no FU series")
		}
	}
}

func BenchmarkFig15bPowerSeries(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(benchScale)
		res, err := s.Fig15(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		peak := 0.0
		for _, v := range res["SIMD"].Power.Sample(1) {
			if v > peak {
				peak = v
			}
		}
		b.ReportMetric(peak, "SIMD-peak-W")
	}
}

func BenchmarkFig16aBigdata(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(benchScale)
		if _, err := s.Fig16a(context.Background()); err != nil {
			b.Fatal(err)
		}
		simd, _ := s.Bigdata(context.Background(), "bfs", core.SIMD)
		o3, _ := s.Bigdata(context.Background(), "bfs", core.IntraO3)
		b.ReportMetric(o3.ThroughputMBps()/simd.ThroughputMBps(), "bfs-IntraO3/SIMD")
	}
}

func BenchmarkFig16bBigdataEnergy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(benchScale)
		if _, err := s.Fig16b(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- experiment engine (internal/runner) ----------------------------------

// benchmarkSuitePrewarm fills a fresh Suite's cache for every cached
// experiment cell with the given parallelism. Comparing the Sequential and
// Parallel variants measures the runner layer's wall-clock speedup for a
// full evaluation (on an N-core machine the parallel variant approaches
// N× up to the longest single cell); the figure renders afterwards are
// cache reads either way.
func benchmarkSuitePrewarm(b *testing.B, workers int) {
	jobs := experiments.NewSuite(benchScale).CellsFor(experiments.IDs())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(benchScale)
		s.Workers = workers
		if err := s.Prewarm(context.Background(), jobs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(jobs)), "cells")
}

func BenchmarkSuitePrewarmSequential(b *testing.B) { benchmarkSuitePrewarm(b, 1) }

func BenchmarkSuitePrewarmParallel(b *testing.B) {
	benchmarkSuitePrewarm(b, runtime.GOMAXPROCS(0))
}

// BenchmarkFig3SensitivityParallel measures the 48-cell Fig. 3 sweep
// through the runner pool (its sequential baseline is Fig3bThroughput).
func BenchmarkFig3SensitivityParallel(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(benchScale)
		s.Workers = runtime.GOMAXPROCS(0)
		if _, err := s.Fig3Points(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- ablations (DESIGN.md §6) ---------------------------------------------

func runAblation(b *testing.B, mutate func(*Config)) *Result {
	b.Helper()
	o := workload.DefaultOptions()
	o.Scale = benchScale
	bundle, err := workload.Mix(1, o)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig(IntraO3)
	mutate(&cfg)
	d, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range bundle.Populate {
		if err := d.PopulateInput(r.Addr, r.Bytes, nil); err != nil {
			b.Fatal(err)
		}
	}
	for _, app := range bundle.Apps {
		if err := d.OffloadApp(app.Name, app.Tables); err != nil {
			b.Fatal(err)
		}
	}
	res, err := d.Run(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	return res
}

func BenchmarkAblationScreenCount(b *testing.B) {
	for _, screens := range []int{2, 4, 8, 16} {
		screens := screens
		b.Run(itoa(screens), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				o := workload.DefaultOptions()
				o.Scale = benchScale
				o.ScreensPerMB = screens
				bundle, err := workload.Homogeneous("FDTD", o)
				if err != nil {
					b.Fatal(err)
				}
				r, err := Run(context.Background(), IntraO3, bundle)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(r.ThroughputMBps(), "MB/s")
			}
		})
	}
}

func BenchmarkAblationStorengine(b *testing.B) {
	for _, enabled := range []bool{true, false} {
		enabled := enabled
		name := "dedicated"
		if !enabled {
			name = "foreground-only"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := runAblation(b, func(c *Config) { c.Storengine.Enabled = enabled })
				b.ReportMetric(r.ThroughputMBps(), "MB/s")
			}
		})
	}
}

func BenchmarkAblationRangeLock(b *testing.B) {
	for _, global := range []bool{false, true} {
		global := global
		name := "interval-tree"
		if global {
			name = "global-lock"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := runAblation(b, func(c *Config) { c.Visor.GlobalLock = global })
				b.ReportMetric(r.ThroughputMBps(), "MB/s")
				b.ReportMetric(float64(r.LockConflicts), "conflicts")
			}
		})
	}
}

func BenchmarkAblationOverlap(b *testing.B) {
	for _, noOverlap := range []bool{false, true} {
		noOverlap := noOverlap
		name := "overlap"
		if noOverlap {
			name = "no-overlap"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := runAblation(b, func(c *Config) { c.NoOverlap = noOverlap })
				b.ReportMetric(r.ThroughputMBps(), "MB/s")
			}
		})
	}
}

func BenchmarkAblationGCPolicy(b *testing.B) {
	for _, greedy := range []bool{false, true} {
		greedy := greedy
		name := "round-robin"
		if greedy {
			name = "greedy"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := runAblation(b, func(c *Config) { c.Storengine.Greedy = greedy })
				b.ReportMetric(r.ThroughputMBps(), "MB/s")
			}
		})
	}
}

// BenchmarkClusterScaling runs the host-level scale-out path at 1/2/4/8
// cards under both dispatch policies and reports the aggregate MB/s, so the
// CI bench artifact tracks multi-device throughput alongside the
// single-device figures.
func BenchmarkClusterScaling(b *testing.B) {
	for _, policy := range []Policy{RoundRobin, WorkSteal} {
		policy := policy
		name := "round-robin"
		if policy == WorkSteal {
			name = "work-steal"
		}
		for _, devices := range []int{1, 2, 4, 8} {
			devices := devices
			b.Run(name+"/devices="+itoa(devices), func(b *testing.B) {
				bundle, err := Mix(1, benchScale)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					r, err := RunCluster(context.Background(), IntraO3, devices, policy, bundle)
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(r.ThroughputMBps(), "MB/s")
				}
			})
		}
	}
}

// itoa avoids pulling strconv into the bench file.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// Silence unused-import pruning if metrics change.
var _ = units.Second
