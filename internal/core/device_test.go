package core

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/kdt"
	"repro/internal/kernel"
	"repro/internal/units"
)

// computeTable builds a pure-compute kernel with the given microblock
// screen counts.
func computeTable(name string, instrPerScreen int64, shape []int) *kdt.Table {
	t := &kdt.Table{Name: name, Sections: kdt.DefaultSections(256, 0)}
	for _, screens := range shape {
		mb := kdt.Microblock{}
		for s := 0; s < screens; s++ {
			mb.Screens = append(mb.Screens, kdt.Screen{Ops: []kdt.Op{
				{Kind: kdt.OpCompute, Instr: instrPerScreen, MulMilli: 100, LdStMilli: 300},
			}})
		}
		t.Microblocks = append(t.Microblocks, mb)
	}
	return t
}

// ioTable builds a kernel that reads input, computes, and writes output.
func ioTable(name string, inAddr, inBytes, outAddr, outBytes, instr int64, screens int) *kdt.Table {
	t := &kdt.Table{Name: name, Sections: kdt.DefaultSections(256, inBytes)}
	mb := kdt.Microblock{}
	per := inBytes / int64(screens)
	for s := 0; s < screens; s++ {
		ops := []kdt.Op{
			{Kind: kdt.OpRead, Section: uint8(s), FlashAddr: inAddr + int64(s)*per, Bytes: per},
			{Kind: kdt.OpCompute, Instr: instr / int64(screens), MulMilli: 150, LdStMilli: 456},
		}
		if outBytes > 0 {
			ops = append(ops, kdt.Op{
				Kind: kdt.OpWrite, Section: uint8(s),
				FlashAddr: outAddr + int64(s)*(outBytes/int64(screens)),
				Bytes:     outBytes / int64(screens),
			})
		}
		mb.Screens = append(mb.Screens, kdt.Screen{Ops: ops})
	}
	t.Microblocks = append(t.Microblocks, mb)
	return t
}

func newDevice(t *testing.T, sys System) *Device {
	t.Helper()
	d, err := New(DefaultConfig(sys))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestConfigValidate(t *testing.T) {
	bad := DefaultConfig(IntraO3)
	bad.LWPs = 0
	if _, err := New(bad); err == nil {
		t.Error("zero LWPs accepted")
	}
	bad = DefaultConfig(IntraO3)
	bad.LWPs = 2
	if _, err := New(bad); err == nil {
		t.Error("FlashAbacus with 2 LWPs accepted")
	}
	bad = DefaultConfig(SIMD)
	bad.Workers = 99
	if _, err := New(bad); err == nil {
		t.Error("more workers than LWPs accepted")
	}
}

func TestWorkerSplitMatchesPaper(t *testing.T) {
	if got := DefaultConfig(SIMD).workerCount(); got != 8 {
		t.Errorf("SIMD workers = %d, want 8", got)
	}
	for _, sys := range FlashAbacusSystems {
		if got := DefaultConfig(sys).workerCount(); got != 6 {
			t.Errorf("%v workers = %d, want 6 (Flashvisor + Storengine reserved)", sys, got)
		}
	}
}

func TestSystemStrings(t *testing.T) {
	want := []string{"SIMD", "InterSt", "InterDy", "IntraIo", "IntraO3"}
	for i, sys := range Systems {
		if sys.String() != want[i] {
			t.Errorf("system %d = %q", i, sys.String())
		}
	}
	if SIMD.IsFlashAbacus() || !IntraO3.IsFlashAbacus() {
		t.Error("IsFlashAbacus wrong")
	}
}

func TestRunRequiresOffload(t *testing.T) {
	d := newDevice(t, IntraO3)
	if _, err := d.Run(context.Background()); err == nil {
		t.Error("run with nothing offloaded succeeded")
	}
}

func TestRunTwiceFails(t *testing.T) {
	d := newDevice(t, IntraO3)
	if err := d.OffloadApp("a", []*kdt.Table{computeTable("k", 1e6, []int{1})}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(context.Background()); err == nil {
		t.Error("second run succeeded")
	}
	if err := d.OffloadApp("late", []*kdt.Table{computeTable("k", 1, []int{1})}); err == nil {
		t.Error("offload after run succeeded")
	}
}

func TestComputeOnlyRun(t *testing.T) {
	d := newDevice(t, IntraO3)
	if err := d.OffloadApp("app", []*kdt.Table{computeTable("k", 1e8, []int{4, 1, 4})}); err != nil {
		t.Fatal(err)
	}
	r, err := d.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if r.Makespan <= 0 {
		t.Error("zero makespan")
	}
	if len(r.KernelLatencies) != 1 {
		t.Errorf("latencies = %d, want 1", len(r.KernelLatencies))
	}
	if r.WorkerUtil <= 0 || r.WorkerUtil > 1 {
		t.Errorf("utilization = %v", r.WorkerUtil)
	}
	if r.Energy.Total() <= 0 {
		t.Error("no energy accounted")
	}
}

func TestParallelScreensBeatSerial(t *testing.T) {
	// The same instruction count split over 6 screens must finish faster
	// on IntraO3 than as one serial screen.
	run := func(shape []int, per int64) units.Duration {
		d := newDevice(t, IntraO3)
		if err := d.OffloadApp("a", []*kdt.Table{computeTable("k", per, shape)}); err != nil {
			t.Fatal(err)
		}
		r, err := d.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return r.Makespan
	}
	serial := run([]int{1}, 6e8)
	parallel := run([]int{6}, 1e8)
	if parallel >= serial {
		t.Errorf("parallel %s not faster than serial %s",
			units.FormatDuration(parallel), units.FormatDuration(serial))
	}
	if parallel > serial/4 {
		t.Errorf("parallel %s should approach serial/6 of %s",
			units.FormatDuration(parallel), units.FormatDuration(serial))
	}
}

func TestDataIntensiveSIMDSlowerThanFlashAbacus(t *testing.T) {
	const inBytes = 64 * units.MB
	run := func(sys System) float64 {
		d := newDevice(t, sys)
		if err := d.PopulateInput(0, inBytes, nil); err != nil {
			t.Fatal(err)
		}
		// Data-intensive: few instructions per byte.
		tab := ioTable("k", 0, inBytes, 16*units.GB, units.MB, 5e8, 4)
		if err := d.OffloadApp("a", []*kdt.Table{tab}); err != nil {
			t.Fatal(err)
		}
		r, err := d.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return r.ThroughputMBps()
	}
	simd := run(SIMD)
	o3 := run(IntraO3)
	if o3 <= simd {
		t.Errorf("IntraO3 %.1f MB/s not faster than SIMD %.1f MB/s", o3, simd)
	}
	if o3 < 1.5*simd {
		t.Errorf("IntraO3 %.1f MB/s should be well above SIMD %.1f MB/s for data-intensive work", o3, simd)
	}
}

func TestSIMDEnergyDominatedByHostSide(t *testing.T) {
	const inBytes = 32 * units.MB
	d := newDevice(t, SIMD)
	d.PopulateInput(0, inBytes, nil)
	if err := d.OffloadApp("a", []*kdt.Table{ioTable("k", 0, inBytes, 16*units.GB, units.MB, 1e8, 4)}); err != nil {
		t.Fatal(err)
	}
	r, err := d.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	hostShare := r.Energy.Frac(0) + r.Energy.Frac(2) // data movement + storage
	if hostShare < 0.5 {
		t.Errorf("host-side energy share %.2f, want the majority for data-intensive SIMD", hostShare)
	}
	if r.SSDTime == 0 || r.StackTime == 0 {
		t.Error("SIMD breakdown missing SSD/stack time")
	}
}

func TestInterDyBalancesBetterThanInterSt(t *testing.T) {
	// One app with six identical kernels: InterSt pins them all to one
	// LWP; InterDy spreads them over six workers.
	apps := func(d *Device) {
		tabs := make([]*kdt.Table, 6)
		for i := range tabs {
			tabs[i] = computeTable("k", 2e8, []int{1})
		}
		if err := d.OffloadApp("homog", tabs); err != nil {
			t.Fatal(err)
		}
	}
	dSt := newDevice(t, InterSt)
	apps(dSt)
	rSt, err := dSt.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	dDy := newDevice(t, InterDy)
	apps(dDy)
	rDy, err := dDy.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rDy.Makespan >= rSt.Makespan {
		t.Errorf("InterDy %s not faster than InterSt %s",
			units.FormatDuration(rDy.Makespan), units.FormatDuration(rSt.Makespan))
	}
	speedup := float64(rSt.Makespan) / float64(rDy.Makespan)
	if speedup < 4 {
		t.Errorf("InterDy speedup %.1fx, want near 6x for six independent kernels", speedup)
	}
}

func TestFunctionalEndToEnd(t *testing.T) {
	// A real builtin doubles every float; the result written to flash must
	// read back doubled — through KDT encode/decode, PCIe offload,
	// scheduling, Flashvisor mapping, and write buffering.
	kernel.RegisterBuiltin(9001, "double", func(ctx *kernel.ExecCtx) error {
		vals := kernel.BytesToF32(ctx.Sections[0])
		for i := range vals {
			vals[i] *= 2
		}
		ctx.Sections[0] = kernel.F32ToBytes(vals)
		return nil
	})
	cfg := DefaultConfig(IntraO3)
	cfg.Functional = true
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := int64(16 * units.KB)
	in := make([]float32, n/4)
	for i := range in {
		in[i] = float32(i)
	}
	if err := d.PopulateInput(0, n, kernel.F32ToBytes(in)); err != nil {
		t.Fatal(err)
	}
	outAddr := int64(1 * units.GB)
	tab := &kdt.Table{
		Name:     "double",
		Sections: kdt.DefaultSections(128, n),
		Microblocks: []kdt.Microblock{{Screens: []kdt.Screen{{Ops: []kdt.Op{
			{Kind: kdt.OpRead, Section: 0, FlashAddr: 0, Bytes: n},
			{Kind: kdt.OpCompute, Instr: int64(len(in)), LdStMilli: 400},
			{Kind: kdt.OpExec, Section: 0, Builtin: 9001},
			{Kind: kdt.OpWrite, Section: 0, FlashAddr: outAddr, Bytes: n},
		}}}}},
	}
	if err := d.OffloadApp("fn", []*kdt.Table{tab}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	got, err := d.Visor().ReadBytes(outAddr, n)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float32, len(in))
	for i := range want {
		want[i] = 2 * float32(i)
	}
	if !bytes.Equal(got, kernel.F32ToBytes(want)) {
		t.Error("functional pipeline produced wrong data")
	}
}

func TestUnregisteredBuiltinFailsRun(t *testing.T) {
	cfg := DefaultConfig(IntraO3)
	cfg.Functional = true
	d, _ := New(cfg)
	tab := &kdt.Table{
		Name:     "bad",
		Sections: kdt.DefaultSections(128, 0),
		Microblocks: []kdt.Microblock{{Screens: []kdt.Screen{{Ops: []kdt.Op{
			{Kind: kdt.OpExec, Builtin: 60000},
		}}}}},
	}
	if err := d.OffloadApp("x", []*kdt.Table{tab}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(context.Background()); err == nil {
		t.Error("run with unregistered builtin succeeded")
	}
}

func TestSeriesCollection(t *testing.T) {
	cfg := DefaultConfig(IntraO3)
	cfg.CollectSeries = true
	d, _ := New(cfg)
	d.PopulateInput(0, 8*units.MB, nil)
	if err := d.OffloadApp("a", []*kdt.Table{ioTable("k", 0, 8*units.MB, 16*units.GB, units.MB, 1e8, 2)}); err != nil {
		t.Fatal(err)
	}
	r, err := d.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if r.FU.Len() == 0 || r.Power.Len() == 0 {
		t.Fatal("series not collected")
	}
	var peakFU float64
	for _, v := range r.FU.Sample(1) {
		if v > peakFU {
			peakFU = v
		}
	}
	if peakFU <= 0 || peakFU > float64(cfg.CostModel.IssueWidth()*d.Workers()) {
		t.Errorf("peak FU utilization %v out of range", peakFU)
	}
}

func TestOverlapAblation(t *testing.T) {
	run := func(noOverlap bool) units.Duration {
		cfg := DefaultConfig(IntraO3)
		cfg.NoOverlap = noOverlap
		d, _ := New(cfg)
		d.PopulateInput(0, 64*units.MB, nil)
		// Balanced compute and IO so overlap matters.
		if err := d.OffloadApp("a", []*kdt.Table{ioTable("k", 0, 64*units.MB, 16*units.GB, units.MB, 2e8, 4)}); err != nil {
			t.Fatal(err)
		}
		r, err := d.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return r.Makespan
	}
	with := run(false)
	without := run(true)
	if with >= without {
		t.Errorf("overlap run %s not faster than no-overlap %s",
			units.FormatDuration(with), units.FormatDuration(without))
	}
}

func TestGCInterferenceSlowsWrites(t *testing.T) {
	// A write-heavy workload on a full device must still complete, with
	// reclaims recorded. A shrunken backbone keeps the churn fast.
	cfg := DefaultConfig(IntraO3)
	cfg.Flash.PackagesPerCh = 1
	cfg.Flash.DiesPerPkg = 1
	cfg.Flash.PagesPerBlock = 8
	cfg.Flash.BlocksPerDie = 8
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	logical := d.Visor().FTL.LogicalBytes()
	if err := d.PopulateInput(0, logical, nil); err != nil {
		t.Fatal(err)
	}
	over := logical / 2
	writer := func() *kdt.Table {
		return &kdt.Table{
			Name:     "writer",
			Sections: kdt.DefaultSections(128, 0),
			Microblocks: []kdt.Microblock{{Screens: []kdt.Screen{{Ops: []kdt.Op{
				{Kind: kdt.OpCompute, Instr: 1e7, LdStMilli: 300},
				{Kind: kdt.OpWrite, FlashAddr: 0, Bytes: over},
			}}}}},
		}
	}
	// Six kernels overwrite the same range, invalidating predecessors and
	// forcing reclaim churn on the full device.
	if err := d.OffloadApp("w", []*kdt.Table{writer(), writer(), writer(), writer(), writer(), writer()}); err != nil {
		t.Fatal(err)
	}
	r, err := d.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if r.Visor.FGReclaims+r.BGReclaims == 0 {
		t.Error("no reclaims on a nearly-full device")
	}
	if err := d.Visor().FTL.CheckConsistency(); err != nil {
		t.Error(err)
	}
}
