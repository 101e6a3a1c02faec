package flashvisor

import (
	"testing"

	"repro/internal/flash"
	"repro/internal/flashctrl"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/sim"
	"repro/internal/units"
)

// newBenchVisor builds a Visor over the default geometry (the shape every
// experiment runs) for the hot-path benches.
func newBenchVisor(b testing.TB, functional bool) *Visor {
	b.Helper()
	bb, err := flash.NewBackbone(flash.DefaultGeometry(), flash.DefaultTiming())
	if err != nil {
		b.Fatal(err)
	}
	bb.Functional = functional
	ctrl, err := flashctrl.New(flashctrl.DefaultConfig(), bb)
	if err != nil {
		b.Fatal(err)
	}
	ddr, err := mem.New(mem.DDR3LConfig())
	if err != nil {
		b.Fatal(err)
	}
	spad, err := mem.New(mem.ScratchpadConfig())
	if err != nil {
		b.Fatal(err)
	}
	net, err := noc.New(noc.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	v, err := New(DefaultConfig(), ctrl, ddr, spad, net)
	if err != nil {
		b.Fatal(err)
	}
	return v
}

// TestMapReadAllocatesNothing pins the timing-only read path at zero
// allocations for a one-group section and a 1024-group run: the controller
// books a whole run through its pipeline with scratch it keeps.
func TestMapReadAllocatesNothing(t *testing.T) {
	v := newBenchVisor(t, false)
	gs := v.Geo.GroupSize()
	if err := v.Populate(0, 1024*gs, nil); err != nil {
		t.Fatal(err)
	}
	at := sim.Time(0)
	for _, groups := range []int64{1, 1024} {
		allocs := testing.AllocsPerRun(50, func() {
			done, _, err := v.MapRead(at, 1, 0, groups*gs)
			if err != nil {
				t.Fatal(err)
			}
			at = done
		})
		if allocs != 0 {
			t.Errorf("MapRead of %d groups: %.1f allocations, want 0", groups, allocs)
		}
	}
}

// BenchmarkVisorMapRead measures the group-batched read path: one 4 MB
// section read (64 page groups, physically contiguous after sequential
// population) per iteration — the per-screen streaming pattern of every
// kernel. The batching target is near-zero allocs/op.
func BenchmarkVisorMapRead(b *testing.B) {
	v := newBenchVisor(b, false)
	const size = 4 * units.MB
	if err := v.Populate(0, size, nil); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	at := sim.Time(0)
	for i := 0; i < b.N; i++ {
		done, _, err := v.MapRead(at, 1, 0, size)
		if err != nil {
			b.Fatal(err)
		}
		at = done
	}
}

// BenchmarkVisorMapWrite measures the write path at the same 4 MB screen
// granularity, including FTL allocation, commits, and (eventually)
// foreground interactions with the log head.
func BenchmarkVisorMapWrite(b *testing.B) {
	v := newBenchVisor(b, false)
	const size = 4 * units.MB
	b.ReportAllocs()
	b.ResetTimer()
	at := sim.Time(0)
	for i := 0; i < b.N; i++ {
		// Rewrite the same logical range so the run length is bounded by
		// the device, not the logical space.
		done, err := v.MapWrite(at, 1, 0, size, nil)
		if err != nil {
			b.Fatal(err)
		}
		at = done
	}
}

// BenchmarkFTLReclaim measures one full reclaim cycle (victim selection,
// valid-group migration, erase, release) against a fragmented FTL — the
// Storengine tick body.
func BenchmarkFTLReclaim(b *testing.B) {
	v := newBenchVisor(b, false)
	lwp := sim.NewResource("bench-lwp")
	// Fill the logical space, then overwrite half of it so victims carry a
	// mix of valid and invalid groups.
	logical := v.FTL.LogicalBytes()
	if err := v.Populate(0, logical, nil); err != nil {
		b.Fatal(err)
	}
	if err := v.Populate(0, logical/2, nil); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	at := sim.Time(0)
	for i := 0; i < b.N; i++ {
		done, err := v.Reclaim(at, lwp, false)
		if err != nil {
			b.Fatal(err)
		}
		at = done
	}
}

// BenchmarkFTLAllocCommit measures the raw allocation path the write loop
// leans on.
func BenchmarkFTLAllocCommit(b *testing.B) {
	f, err := NewFTL(flash.DefaultGeometry(), 0.07)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lg := int64(i) % f.LogicalGroups()
		pg, _, err := f.Alloc(false)
		if err != nil {
			b.StopTimer()
			done, ok := f.VictimRoundRobin()
			if !ok {
				b.Fatal("no victim")
			}
			for _, pair := range f.ValidGroups(done) {
				_ = pair
				f.invalidate(pair.Phys)
			}
			f.Release(done)
			b.StartTimer()
			continue
		}
		if err := f.Commit(lg, pg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNewFTL measures device formatting — once 55% of a full
// bench-scale evaluation because the mapping tables were initialized with
// explicit -1 stores; the zero-default encoding makes it an allocation.
func BenchmarkNewFTL(b *testing.B) {
	geo := flash.DefaultGeometry()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewFTL(geo, 0.07); err != nil {
			b.Fatal(err)
		}
	}
}
