package core

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/kdt"
	"repro/internal/stats"
	"repro/internal/units"
	"repro/internal/workload"
)

// runMix executes MX2 at a small scale on one system.
func runMix(t *testing.T, sys System, mutate func(*Config)) *releaseResult {
	t.Helper()
	o := workload.DefaultOptions()
	o.Scale = 256
	b, err := workload.Mix(2, o)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(sys)
	if mutate != nil {
		mutate(&cfg)
	}
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range b.Populate {
		if err := d.PopulateInput(r.Addr, r.Bytes, nil); err != nil {
			t.Fatal(err)
		}
	}
	for _, app := range b.Apps {
		if err := d.OffloadApp(app.Name, app.Tables); err != nil {
			t.Fatal(err)
		}
	}
	res, err := d.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return &releaseResult{d: d, r: res}
}

type releaseResult struct {
	d *Device
	r interface {
		ThroughputMBps() float64
	}
}

// TestRunInvariantsAcrossSystems checks structural invariants every system
// must satisfy on a heterogeneous mix.
func TestRunInvariantsAcrossSystems(t *testing.T) {
	for _, sys := range Systems {
		sys := sys
		t.Run(sys.String(), func(t *testing.T) {
			o := workload.DefaultOptions()
			o.Scale = 256
			b, err := workload.Mix(2, o)
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig(sys)
			d, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, rng := range b.Populate {
				if err := d.PopulateInput(rng.Addr, rng.Bytes, nil); err != nil {
					t.Fatal(err)
				}
			}
			for _, app := range b.Apps {
				if err := d.OffloadApp(app.Name, app.Tables); err != nil {
					t.Fatal(err)
				}
			}
			r, err := d.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			// 24 kernels complete, each no later than the makespan.
			if len(r.CompletionTimes) != 24 {
				t.Fatalf("completions = %d", len(r.CompletionTimes))
			}
			for _, c := range r.CompletionTimes {
				if c > r.Makespan {
					t.Fatal("completion after makespan")
				}
			}
			// Latencies positive; utilization within [0,1]; energy
			// categories non-negative.
			for _, l := range r.KernelLatencies {
				if l <= 0 {
					t.Fatal("non-positive kernel latency")
				}
			}
			if r.WorkerUtil <= 0 || r.WorkerUtil > 1 {
				t.Fatalf("utilization %v", r.WorkerUtil)
			}
			for i := 0; i < 3; i++ {
				if r.Energy[i] < 0 {
					t.Fatal("negative energy category")
				}
			}
			// Every read group the workload demanded was serviced by
			// exactly one datapath.
			if sys.IsFlashAbacus() {
				if r.Visor.ReadGroups == 0 {
					t.Fatal("FlashAbacus run issued no flash reads")
				}
				if err := d.Visor().FTL.CheckConsistency(); err != nil {
					t.Fatal(err)
				}
			} else if r.Visor.ReadGroups != 0 {
				t.Fatal("SIMD run touched the flash backbone")
			}
		})
	}
}

// TestDeterminism: identical configurations produce bit-identical results.
func TestDeterminism(t *testing.T) {
	run := func() (units.Duration, float64) {
		o := workload.DefaultOptions()
		o.Scale = 256
		b, _ := workload.Mix(3, o)
		cfg := DefaultConfig(IntraO3)
		d, _ := New(cfg)
		for _, rng := range b.Populate {
			d.PopulateInput(rng.Addr, rng.Bytes, nil)
		}
		for _, app := range b.Apps {
			d.OffloadApp(app.Name, app.Tables)
		}
		r, err := d.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return r.Makespan, r.Energy.Total()
	}
	m1, e1 := run()
	m2, e2 := run()
	if m1 != m2 || e1 != e2 {
		t.Fatalf("non-deterministic: %d/%v vs %d/%v", m1, e1, m2, e2)
	}
}

// TestDispatchOverheadSlowsCrossLWPHandoffs: raising the IPC cost must not
// speed anything up, and hurts the intra-kernel schedulers most.
func TestDispatchOverheadSlowsCrossLWPHandoffs(t *testing.T) {
	base := runMix(t, IntraO3, nil)
	slow := runMix(t, IntraO3, func(c *Config) { c.DispatchOverhead = 500 * units.Microsecond })
	if slow.r.ThroughputMBps() > base.r.ThroughputMBps() {
		t.Errorf("larger dispatch overhead improved throughput: %.1f > %.1f",
			slow.r.ThroughputMBps(), base.r.ThroughputMBps())
	}
}

// TestStorengineDisabledStillCompletes: with the dedicated core disabled,
// reclaim falls back to Flashvisor's blocking path but runs still finish.
func TestStorengineDisabledStillCompletes(t *testing.T) {
	res := runMix(t, IntraO3, func(c *Config) { c.Storengine.Enabled = false })
	if res.r.ThroughputMBps() <= 0 {
		t.Fatal("no throughput without Storengine")
	}
}

// TestOffloadRejectsBadTables: a corrupted description table must be
// rejected at offload, not at run time.
func TestOffloadRejectsBadTables(t *testing.T) {
	d, _ := New(DefaultConfig(IntraO3))
	bad := &kdt.Table{Name: ""} // fails validation
	if err := d.OffloadApp("x", []*kdt.Table{bad}); err == nil {
		t.Fatal("invalid table accepted")
	}
}

// TestSeriesObservationOnly: collecting the Fig. 15 series must not move
// anything else a run reports. Every mix on every system at -scale 64
// gives the same Result with and without CollectSeries once the two
// series are cleared.
func TestSeriesObservationOnly(t *testing.T) {
	o := workload.DefaultOptions()
	o.Scale = 64
	run := func(sys System, b *workload.Bundle, series bool) *stats.Result {
		cfg := DefaultConfig(sys)
		cfg.CollectSeries = series
		d, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range b.Populate {
			if err := d.PopulateInput(r.Addr, r.Bytes, nil); err != nil {
				t.Fatal(err)
			}
		}
		for _, app := range b.Apps {
			if err := d.OffloadApp(app.Name, app.Tables); err != nil {
				t.Fatal(err)
			}
		}
		res, err := d.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for n := 1; n <= 3; n++ {
		b, err := workload.Mix(n, o)
		if err != nil {
			t.Fatal(err)
		}
		for _, sys := range Systems {
			plain := run(sys, b, false)
			with := run(sys, b, true)
			if with.FU.Len() == 0 || with.Power.Len() == 0 {
				t.Fatalf("MX%d/%s: series not collected", n, sys)
			}
			with.FU, with.Power = nil, nil
			if !reflect.DeepEqual(plain, with) {
				t.Errorf("MX%d/%s: collecting series changed the result", n, sys)
			}
		}
	}
}
