package flashctrl

import (
	"fmt"
	"slices"
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

// recordingRetrier logs every consultation. Its answer is a pure function
// of the arguments, as ReadRetrier requires; with charge off it never
// charges, so runs stay eligible for the closed form while it records.
type recordingRetrier struct {
	charge bool
	log    []retryCall
}

type retryCall struct {
	at  sim.Time
	pg  flash.PhysGroup
	seq int64
}

func (r *recordingRetrier) Retries(at sim.Time, pg flash.PhysGroup, seq int64) int {
	r.log = append(r.log, retryCall{at, pg, seq})
	if h := int64(at)/11 + int64(pg) + 2*seq; r.charge && h%23 == 0 {
		return 1 + int(h%3)
	}
	return 0
}

// readPipeline returns every resource of c's read pipeline in order: tag
// queues, die rows, then the bus and SRIO pipes.
func readPipeline(c *Complex) ([]*sim.Resource, []*sim.Pipe) {
	sense, bus := c.BB.ReadStages()
	return append(append([]*sim.Resource{}, c.tags...), sense.Ring...), []*sim.Pipe{bus.Pipe, c.srio}
}

func ddrPipe() *sim.Pipe {
	p := sim.NewPipe("ddr3l", 6400*units.MBps)
	p.Latency = 50
	return p
}

// TestReadGroupsSeqMatchesReadGroup pins ReadGroupsSeq to n individual
// ReadGroup calls, each followed by its landing transfer: runs of 1, 15, 16,
// 17 and 1000 groups that wrap the tag queues and die rows, on a complex
// whose tag queues are backlogged by buffered programs booked ahead of the
// reads, without a retrier and with one that records every consultation.
// Every completion, every resource's free time, busy time, reservations
// and bytes, the read count and the retrier's call sequence must agree.
func TestReadGroupsSeqMatchesReadGroup(t *testing.T) {
	for _, mode := range []string{"none", "recording", "charging"} {
		for _, n := range []int{1, 15, 16, 17, 1000} {
			for _, start := range []flash.PhysGroup{0, 5, 13} {
				name := fmt.Sprintf("retrier %s, %d groups from %d", mode, n, start)
				a, b := newComplex(t), newComplex(t)
				la, lb := ddrPipe(), ddrPipe()
				b.SetLanding(lb)
				var ra, rb *recordingRetrier
				if mode != "none" {
					ra, rb = &recordingRetrier{charge: mode == "charging"}, &recordingRetrier{charge: mode == "charging"}
					a.BB.SetRetrier(ra)
					b.BB.SetRetrier(rb)
				}
				// Buffered programs booked ahead keep the tag queues busy
				// well past the reads' request times.
				for i := 0; i < 64; i++ {
					a.ProgramGroupBuffered(sim.Time(i)*units.Microsecond, flash.PhysGroup(4000+i))
					b.ProgramGroupBuffered(sim.Time(i)*units.Microsecond, flash.PhysGroup(4000+i))
				}
				a.ReadGroup(0, 3)
				b.ReadGroup(0, 3)
				const stride = 600
				at := sim.Time(7 * units.Microsecond)
				gs := a.BB.Geo.GroupSize()
				want := make([]sim.Time, n)
				for i := range want {
					_, want[i] = la.Transfer(a.ReadGroup(at+sim.Time(i)*stride, start+flash.PhysGroup(i)), gs)
				}
				got := 0
				last := b.ReadGroupsSeq(at, stride, start, n, func(i int, end sim.Time) {
					if i != got || end != want[i] {
						t.Fatalf("%s: group %d done %d, want group %d done %d", name, i, end, got, want[got])
					}
					got++
				})
				if got != n || last != want[n-1] {
					t.Fatalf("%s: %d completions, last %d; want %d, last %d", name, got, last, n, want[n-1])
				}
				compareReadState(t, name, a, b, la, lb)
				if adv := b.read.Advanced(); n == 1000 && (adv < 900 && mode != "charging" || adv == 0) {
					t.Fatalf("%s: only %d groups advanced in closed form", name, adv)
				}
				if ra != nil && !slices.Equal(ra.log, rb.log) {
					t.Fatalf("%s: retrier saw %d calls, reference %d, or a different sequence", name, len(rb.log), len(ra.log))
				}
			}
		}
	}
}

func compareReadState(t *testing.T, name string, a, b *Complex, la, lb *sim.Pipe) {
	t.Helper()
	resA, pipesA := readPipeline(a)
	resB, pipesB := readPipeline(b)
	for i, r := range resA {
		q := resB[i]
		if r.FreeAt() != q.FreeAt() || r.Busy() != q.Busy() || r.Reservations() != q.Reservations() {
			t.Fatalf("%s: %s free/busy/reservations %d/%d/%d, reference %d/%d/%d", name, q.Name,
				q.FreeAt(), q.Busy(), q.Reservations(), r.FreeAt(), r.Busy(), r.Reservations())
		}
	}
	for i, p := range append(pipesA, la) {
		q := append(pipesB, lb)[i]
		if p.FreeAt() != q.FreeAt() || p.Busy() != q.Busy() || p.Reservations() != q.Reservations() || p.Bytes() != q.Bytes() {
			t.Fatalf("%s: %s free/busy/reservations/bytes %d/%d/%d/%d, reference %d/%d/%d/%d", name, q.Name,
				q.FreeAt(), q.Busy(), q.Reservations(), q.Bytes(), p.FreeAt(), p.Busy(), p.Reservations(), p.Bytes())
		}
	}
	if a.BB.Reads() != b.BB.Reads() {
		t.Fatalf("%s: reads %d, reference %d", name, b.BB.Reads(), a.BB.Reads())
	}
	na, ta := a.BB.RetryStats()
	nb, tb := b.BB.RetryStats()
	if na != nb || ta != tb {
		t.Fatalf("%s: retries %d (%d ns), reference %d (%d ns)", name, nb, tb, na, ta)
	}
}
