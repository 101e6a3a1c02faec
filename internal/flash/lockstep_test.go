package flash

import (
	"math/rand"
	"testing"

	"repro/internal/sim"
	"repro/internal/units"
)

// refBackbone books every channel's bus and every (channel, die row) die on
// its own, the way the hardware does, with plain arithmetic instead of sim
// resources. The Backbone books one bus and one die per row for all
// channels; the two must agree on every returned time and every counter.
type refBackbone struct {
	geo     Geometry
	tim     Timing
	retrier ReadRetrier

	chFree  []sim.Time
	chBusy  []units.Duration
	dieFree [][]sim.Time // [channel][die row]
	dieBusy [][]units.Duration

	wbBW       units.Bandwidth
	wbFree     sim.Time
	wbPrograms int64

	reads, programs, retries int64
}

func newRefBackbone(geo Geometry, tim Timing) *refBackbone {
	r := &refBackbone{
		geo: geo, tim: tim,
		chFree: make([]sim.Time, geo.Channels), chBusy: make([]units.Duration, geo.Channels),
		dieFree: make([][]sim.Time, geo.Channels), dieBusy: make([][]units.Duration, geo.Channels),
		wbBW: units.Bandwidth(int64(geo.DieRows()) * geo.GroupSize() * int64(units.Second) / int64(tim.ProgramPage)),
	}
	for ch := range r.dieFree {
		r.dieFree[ch] = make([]sim.Time, geo.DieRows())
		r.dieBusy[ch] = make([]units.Duration, geo.DieRows())
	}
	return r
}

// book is sim.Resource.Reserve on a bare frontier and busy total.
func book(free *sim.Time, busy *units.Duration, at sim.Time, d units.Duration) sim.Time {
	start := units.MaxTime(at, *free)
	if d <= 0 {
		return start
	}
	*free = start + d
	*busy += d
	return *free
}

func (r *refBackbone) row(pg PhysGroup) int { return int(int64(pg) % int64(r.geo.DieRows())) }

func (r *refBackbone) perCh() int64 { return int64(r.geo.PlanesPerDie) * r.geo.PageSize }

func (r *refBackbone) readGroup(at sim.Time, pg PhysGroup) sim.Time {
	sense := r.tim.ReadPage
	if r.retrier != nil {
		n := r.retrier.Retries(at, pg, r.reads)
		sense += units.Duration(n) * r.tim.ReadPage
		r.retries += int64(n)
	}
	row, done := r.row(pg), at
	for ch := 0; ch < r.geo.Channels; ch++ {
		sensed := book(&r.dieFree[ch][row], &r.dieBusy[ch][row], at, sense)
		moved := book(&r.chFree[ch], &r.chBusy[ch], sensed, r.tim.ChannelBW.DurationFor(r.perCh()))
		done = units.MaxTime(done, moved)
	}
	r.reads++
	return done
}

func (r *refBackbone) programGroup(at sim.Time, pg PhysGroup) sim.Time {
	row, done := r.row(pg), at
	for ch := 0; ch < r.geo.Channels; ch++ {
		moved := book(&r.chFree[ch], &r.chBusy[ch], at, r.tim.ChannelBW.DurationFor(r.perCh()))
		done = units.MaxTime(done, book(&r.dieFree[ch][row], &r.dieBusy[ch][row], moved, r.tim.ProgramPage))
	}
	r.programs++
	return done
}

func (r *refBackbone) programGroupBuffered(at sim.Time) sim.Time {
	var busy units.Duration
	r.programs++
	r.wbPrograms++
	return book(&r.wbFree, &busy, at, r.wbBW.DurationFor(r.geo.GroupSize()))
}

func (r *refBackbone) eraseSuper(at sim.Time, sb SuperBlock) sim.Time {
	row, done := int(sb)/r.geo.BlocksPerDie, at
	for ch := 0; ch < r.geo.Channels; ch++ {
		done = units.MaxTime(done, book(&r.dieFree[ch][row], &r.dieBusy[ch][row], at, r.tim.EraseBlock))
	}
	return done
}

func (r *refBackbone) totalChannelBusy() (d units.Duration) {
	for _, b := range r.chBusy {
		d += b
	}
	return d
}

func (r *refBackbone) totalDieBusy() units.Duration {
	d := units.Duration(r.wbPrograms) * r.tim.ProgramPage * units.Duration(r.geo.Channels)
	for _, row := range r.dieBusy {
		for _, b := range row {
			d += b
		}
	}
	return d
}

func (r *refBackbone) busyUntil() sim.Time {
	t := r.wbFree
	for ch := range r.chFree {
		t = units.MaxTime(t, r.chFree[ch])
		for _, f := range r.dieFree[ch] {
			t = units.MaxTime(t, f)
		}
	}
	return t
}

// mixRetrier is a pure function of its arguments, so the backbone and the
// reference model, each consulting it with its own read counter, see the
// same retry counts.
type mixRetrier struct{}

func (mixRetrier) Retries(at sim.Time, pg PhysGroup, seq int64) int {
	return int((int64(at)/7 + int64(pg)*3 + seq) % 4)
}

// TestLockstepMatchesPerChannelModel drives random mixes of reads (single
// and sequential runs, with and without a retrier), direct and buffered
// programs and erases through the Backbone and the per-channel reference
// model, and checks every returned time and counter after every operation.
func TestLockstepMatchesPerChannelModel(t *testing.T) {
	odd := Geometry{Channels: 3, PackagesPerCh: 3, DiesPerPkg: 1, PlanesPerDie: 2,
		PageSize: 4 * units.KB, PagesPerBlock: 8, BlocksPerDie: 4, MetaPages: 1}
	oddTim := DefaultTiming()
	oddTim.ChannelBW = 333 * units.MBps
	cases := []struct {
		name string
		geo  Geometry
		tim  Timing
	}{
		{"default", DefaultGeometry(), DefaultTiming()},
		{"odd", odd, oddTim},
	}
	for _, tc := range cases {
		for _, withRetrier := range []bool{false, true} {
			for seed := int64(1); seed <= 5; seed++ {
				b, err := NewBackbone(tc.geo, tc.tim)
				if err != nil {
					t.Fatal(err)
				}
				ref := newRefBackbone(tc.geo, tc.tim)
				if withRetrier {
					b.SetRetrier(mixRetrier{})
					ref.retrier = mixRetrier{}
				}
				checkLockstep(t, rand.New(rand.NewSource(seed)), b, ref)
				if t.Failed() {
					t.Fatalf("%s geometry, retrier %v, seed %d", tc.name, withRetrier, seed)
				}
			}
		}
	}
}

func checkLockstep(t *testing.T, rng *rand.Rand, b *Backbone, ref *refBackbone) {
	t.Helper()
	geo := b.Geo
	groups := geo.TotalGroups()
	var at sim.Time
	for op := 0; op < 400; op++ {
		// Request times never decrease but often trail the frontiers of
		// busy dies and buses, so requests queue behind earlier work.
		at += sim.Time(rng.Int63n(int64(50 * units.Microsecond)))
		pg := PhysGroup(rng.Int63n(groups))
		var got, want sim.Time
		switch k := rng.Intn(10); {
		case k < 4:
			got, want = b.ReadGroup(at, pg), ref.readGroup(at, pg)
		case k < 6:
			n := 1 + rng.Intn(2*geo.DieRows())
			if int64(pg)+int64(n) > groups {
				pg = PhysGroup(groups - int64(n))
			}
			row := b.RowOfRun(pg, n)
			for i := 0; i < n; i++ {
				got, want = b.ReadGroupOnRow(at, pg+PhysGroup(i), row), ref.readGroup(at, pg+PhysGroup(i))
				if got != want {
					break
				}
				row = (row + 1) % geo.DieRows()
			}
		case k < 8:
			got, want = b.ProgramGroup(at, pg), ref.programGroup(at, pg)
		case k < 9:
			got, want = b.ProgramGroupBuffered(at, pg), ref.programGroupBuffered(at)
		default:
			sb := SuperBlock(rng.Intn(geo.SuperBlocks()))
			got, want = b.EraseSuper(at, sb), ref.eraseSuper(at, sb)
		}
		if got != want {
			t.Errorf("op %d: done %d, reference %d", op, got, want)
			return
		}
		if g, w := b.ChannelBusy(), ref.totalChannelBusy(); g != w {
			t.Errorf("op %d: ChannelBusy %d, reference %d", op, g, w)
		}
		if g, w := b.DieBusy(), ref.totalDieBusy(); g != w {
			t.Errorf("op %d: DieBusy %d, reference %d", op, g, w)
		}
		if g, w := b.BusyUntil(), ref.busyUntil(); g != w {
			t.Errorf("op %d: BusyUntil %d, reference %d", op, g, w)
		}
		if b.Reads() != ref.reads || b.Programs() != ref.programs {
			t.Errorf("op %d: reads/programs %d/%d, reference %d/%d", op, b.Reads(), b.Programs(), ref.reads, ref.programs)
		}
		if n, _ := b.RetryStats(); n != ref.retries {
			t.Errorf("op %d: retries %d, reference %d", op, n, ref.retries)
		}
		if t.Failed() {
			return
		}
		if rng.Intn(2) == 0 {
			at = got
		}
	}
}

func TestRowOfRunChecksWholeRun(t *testing.T) {
	b := newTestBackbone(t)
	last := PhysGroup(b.Geo.TotalGroups() - 1)
	if got, want := b.RowOfRun(last-2, 3), int(int64(last-2)%int64(b.Geo.DieRows())); got != want {
		t.Errorf("RowOfRun = %d, want %d", got, want)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("run past capacity did not panic")
		}
	}()
	b.RowOfRun(last-2, 4)
}
