package flashctrl

import (
	"testing"

	"repro/internal/flash"
	"repro/internal/sim"
	"repro/internal/units"
)

func newComplex(t *testing.T) *Complex {
	t.Helper()
	bb, err := flash.NewBackbone(flash.DefaultGeometry(), flash.DefaultTiming())
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(DefaultConfig(), bb)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	bb, _ := flash.NewBackbone(flash.DefaultGeometry(), flash.DefaultTiming())
	if _, err := New(Config{SRIOBW: 0, TagDepth: 1}, bb); err == nil {
		t.Error("zero SRIO accepted")
	}
	if _, err := New(Config{SRIOBW: 1, TagDepth: 0}, bb); err == nil {
		t.Error("zero tag depth accepted")
	}
}

func TestReadGroupAddsControllerAndLinkCosts(t *testing.T) {
	c := newComplex(t)
	done := c.ReadGroup(0, 0)
	raw := c.BB.Tim.ReadPage + c.BB.Tim.ChannelBW.DurationFor(2*c.BB.Geo.PageSize)
	srio := c.Cfg.SRIOBW.DurationFor(c.BB.Geo.GroupSize())
	want := c.Cfg.TagService + raw + srio
	if done != want {
		t.Errorf("read done %s, want %s", units.FormatDuration(done), units.FormatDuration(want))
	}
	if c.SRIOBytes() != c.BB.Geo.GroupSize() {
		t.Errorf("SRIO bytes = %d", c.SRIOBytes())
	}
}

func TestProgramGroupOrder(t *testing.T) {
	c := newComplex(t)
	done := c.ProgramGroup(0, 0)
	srio := c.Cfg.SRIOBW.DurationFor(c.BB.Geo.GroupSize())
	xfer := c.BB.Tim.ChannelBW.DurationFor(2 * c.BB.Geo.PageSize)
	want := srio + c.Cfg.TagService + xfer + c.BB.Tim.ProgramPage
	if done != want {
		t.Errorf("program done %s, want %s", units.FormatDuration(done), units.FormatDuration(want))
	}
}

func TestEraseSuper(t *testing.T) {
	c := newComplex(t)
	done := c.EraseSuper(0, 5)
	want := c.Cfg.TagService + c.BB.Tim.EraseBlock
	if done != want {
		t.Errorf("erase done %s, want %s", units.FormatDuration(done), units.FormatDuration(want))
	}
	if c.BB.EraseCount(5) != 1 {
		t.Error("erase not recorded")
	}
}

func TestMigrateStaysOffSRIO(t *testing.T) {
	c := newComplex(t)
	c.BB.Functional = true
	c.BB.Store(3, []byte{42})
	before := c.SRIOBytes()
	c.MigrateGroup(0, 3, 11)
	if c.SRIOBytes() != before {
		t.Error("GC migration crossed the SRIO link")
	}
	if c.BB.Load(11) == nil || c.BB.Load(3) != nil {
		t.Error("migration did not move the payload")
	}
}

func TestStreamingReadsCapAtSRIO(t *testing.T) {
	// Aggregate channel bandwidth (3.2 GB/s) exceeds the SRIO link
	// (2.5 GB/s); a long stream must be SRIO-bound.
	c := newComplex(t)
	const n = 512
	var done units.Time
	for i := 0; i < n; i++ {
		done = c.ReadGroup(0, flash.PhysGroup(i))
	}
	bytes := int64(n) * c.BB.Geo.GroupSize()
	bw := float64(bytes) / units.Seconds(done)
	lo, hi := 2.0e9, 2.7e9
	if bw < lo || bw > hi {
		t.Errorf("streaming bandwidth %.0f MB/s, want ~2500 MB/s (SRIO bound)", bw/1e6)
	}
}

func TestTagBusyAccumulates(t *testing.T) {
	c := newComplex(t)
	c.ReadGroup(0, 0)
	c.ReadGroup(0, 1)
	if c.TagBusy() != 2*c.Cfg.TagService {
		t.Errorf("tag busy = %d", c.TagBusy())
	}
}

// seqRetrier is a pure function of its arguments, as ReadRetrier requires.
type seqRetrier struct{}

func (seqRetrier) Retries(at sim.Time, pg flash.PhysGroup, seq int64) int {
	return int((int64(at)/11 + int64(pg) + 2*seq) % 3)
}

// TestReadGroupsSeqMatchesReadGroup pins ReadGroupsSeq to n individual
// ReadGroup calls: runs that wrap the tag queues and the die rows, on a
// backlogged complex, with wear retries charged per group.
func TestReadGroupsSeqMatchesReadGroup(t *testing.T) {
	for _, start := range []flash.PhysGroup{0, 5, 13} {
		a, b := newComplex(t), newComplex(t)
		a.BB.SetRetrier(seqRetrier{})
		b.BB.SetRetrier(seqRetrier{})
		a.ReadGroup(0, 3)
		b.ReadGroup(0, 3)
		const n, stride = 37, 3 * units.Microsecond
		var want []sim.Time
		for i := 0; i < n; i++ {
			want = append(want, a.ReadGroup(sim.Time(i)*stride, start+flash.PhysGroup(i)))
		}
		got := 0
		b.ReadGroupsSeq(0, stride, start, n, func(i int, end sim.Time) {
			if i != got || end != want[i] {
				t.Errorf("start %d: group %d done %d, want group %d done %d", start, i, end, got, want[got])
			}
			got++
		})
		if got != n {
			t.Errorf("start %d: %d completions, want %d", start, got, n)
		}
		ra, _ := a.BB.RetryStats()
		rb, _ := b.BB.RetryStats()
		if a.BB.BusyUntil() != b.BB.BusyUntil() || a.TagBusy() != b.TagBusy() || a.SRIOBusy() != b.SRIOBusy() || ra != rb {
			t.Errorf("start %d: state diverged", start)
		}
	}
}
