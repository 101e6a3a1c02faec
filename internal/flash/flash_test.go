package flash

import (
	"testing"
	"testing/quick"

	"repro/internal/units"
)

func TestDefaultGeometryMatchesPaper(t *testing.T) {
	g := DefaultGeometry()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := g.GroupSize(); got != 64*units.KB {
		t.Errorf("group size = %d, want 64KB (4 channels * 2 planes * 8KB)", got)
	}
	if got := g.Capacity(); got != 32*units.GB {
		t.Errorf("capacity = %s, want 32GB", units.FormatBytes(got))
	}
	if got := g.TotalGroups(); got != 512*1024 {
		t.Errorf("total groups = %d, want 512Ki", got)
	}
	if got := g.DieRows(); got != 8 {
		t.Errorf("die rows = %d, want 8", got)
	}
	// Paper: 2MB of scratchpad suffices for the 32GB mapping table at 4B
	// per entry.
	if bytes := g.TotalGroups() * 4; bytes != 2*units.MB {
		t.Errorf("mapping table = %s, want 2MB", units.FormatBytes(bytes))
	}
}

func TestGeometryValidate(t *testing.T) {
	g := DefaultGeometry()
	g.Channels = 0
	if g.Validate() == nil {
		t.Error("zero channels accepted")
	}
	g = DefaultGeometry()
	g.MetaPages = g.PagesPerBlock
	if g.Validate() == nil {
		t.Error("meta pages == pages per block accepted")
	}
}

func TestComposeDecomposeRoundTrip(t *testing.T) {
	g := DefaultGeometry()
	f := func(raw uint32) bool {
		pg := PhysGroup(int64(raw) % g.TotalGroups())
		return g.Compose(g.Decompose(pg)) == pg
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestConsecutiveGroupsRotateDieRows(t *testing.T) {
	g := DefaultGeometry()
	for i := 0; i < 16; i++ {
		a := g.Decompose(PhysGroup(i))
		if a.DieRow != i%g.DieRows() {
			t.Errorf("group %d die row = %d, want %d", i, a.DieRow, i%g.DieRows())
		}
	}
}

func TestSuperBlockOfGroupsOfConsistent(t *testing.T) {
	g := DefaultGeometry()
	for _, sb := range []SuperBlock{0, 1, 7, 100, SuperBlock(g.SuperBlocks() - 1)} {
		first, step := g.GroupSpan(sb)
		for p := 0; p < g.PagesPerBlock; p++ {
			pg := first + PhysGroup(int64(p)*step)
			if got := g.SuperBlockOf(pg); got != sb {
				t.Fatalf("group %d maps to super block %d, want %d", pg, got, sb)
			}
			if got := g.Decompose(pg).Page; got != p {
				t.Fatalf("group %d of super block %d is page %d, want %d", pg, sb, got, p)
			}
		}
	}
}

func TestDecomposeBeyondCapacityPanics(t *testing.T) {
	g := DefaultGeometry()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g.Decompose(PhysGroup(g.TotalGroups()))
}

func newTestBackbone(t *testing.T) *Backbone {
	t.Helper()
	b, err := NewBackbone(DefaultGeometry(), DefaultTiming())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestReadGroupTiming(t *testing.T) {
	b := newTestBackbone(t)
	done := b.ReadGroup(0, 0)
	// One group read: 81us sensing + 16KB over one 800MB/s channel (~20us).
	xfer := b.Tim.ChannelBW.DurationFor(2 * b.Geo.PageSize)
	want := 81*units.Microsecond + xfer
	if done != want {
		t.Errorf("read done at %s, want %s", units.FormatDuration(done), units.FormatDuration(want))
	}
}

func TestReadsOnDifferentDieRowsOverlap(t *testing.T) {
	b := newTestBackbone(t)
	// Groups 0 and 1 are on different die rows: sensing overlaps, only the
	// channel bus serializes the transfers.
	d0 := b.ReadGroup(0, 0)
	d1 := b.ReadGroup(0, 1)
	xfer := b.Tim.ChannelBW.DurationFor(2 * b.Geo.PageSize)
	if d1 >= d0+b.Tim.ReadPage {
		t.Errorf("different-die reads serialized: %s then %s", units.FormatDuration(d0), units.FormatDuration(d1))
	}
	if d1 != d0+xfer {
		t.Errorf("second read done %s, want %s (bus-serialized)", units.FormatDuration(d1), units.FormatDuration(d0+xfer))
	}
}

func TestReadsOnSameDieRowSerializeSensing(t *testing.T) {
	b := newTestBackbone(t)
	g := b.Geo
	pg0 := PhysGroup(0)
	pg1 := PhysGroup(int64(g.DieRows())) // same die row, next page
	d0 := b.ReadGroup(0, pg0)
	d1 := b.ReadGroup(0, pg1)
	if d1 < d0+b.Tim.ReadPage {
		t.Errorf("same-die reads overlapped sensing: %d then %d", d0, d1)
	}
}

func TestProgramGroupTiming(t *testing.T) {
	b := newTestBackbone(t)
	done := b.ProgramGroup(0, 0)
	xfer := b.Tim.ChannelBW.DurationFor(2 * b.Geo.PageSize)
	want := xfer + b.Tim.ProgramPage
	if done != want {
		t.Errorf("program done at %s, want %s", units.FormatDuration(done), units.FormatDuration(want))
	}
	if b.Programs() != 1 {
		t.Errorf("programs = %d", b.Programs())
	}
}

func TestEraseSuperCountsAndClears(t *testing.T) {
	b := newTestBackbone(t)
	b.Functional = true
	first, step := b.Geo.GroupSpan(3)
	pg := first + PhysGroup(5*step)
	b.Store(pg, []byte("payload"))
	done := b.EraseSuper(0, 3)
	if done != b.Tim.EraseBlock {
		t.Errorf("erase done at %s, want %s", units.FormatDuration(done), units.FormatDuration(b.Tim.EraseBlock))
	}
	if b.EraseCount(3) != 1 {
		t.Errorf("erase count = %d", b.EraseCount(3))
	}
	if b.Load(pg) != nil {
		t.Error("erase did not clear functional payloads")
	}
	if b.TotalErases() != 1 {
		t.Errorf("total erases = %d", b.TotalErases())
	}
}

func TestFunctionalStoreLoadMove(t *testing.T) {
	b := newTestBackbone(t)
	b.Functional = true
	data := []byte{1, 2, 3, 4}
	b.Store(7, data)
	data[0] = 99 // caller mutation must not leak in
	got := b.Load(7)
	if len(got) != 4 || got[0] != 1 {
		t.Errorf("Load = %v, want copy of original", got)
	}
	b.Move(7, 8)
	if b.Load(7) != nil || b.Load(8) == nil {
		t.Error("Move did not relocate payload")
	}
}

func TestTimingOnlyStoreIsNoop(t *testing.T) {
	b := newTestBackbone(t)
	b.Store(7, []byte{1})
	if b.Load(7) != nil {
		t.Error("timing-only backbone stored a payload")
	}
}

func TestStoreOversizedPanics(t *testing.T) {
	b := newTestBackbone(t)
	b.Functional = true
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	b.Store(0, make([]byte, b.Geo.GroupSize()+1))
}

func TestStreamingReadBandwidth(t *testing.T) {
	// Sequential groups across die rows should approach the channel-bus
	// aggregate (4 × 800 MB/s), not the single-die sensing rate.
	b := newTestBackbone(t)
	const n = 256
	var done units.Time
	for i := 0; i < n; i++ {
		done = b.ReadGroup(0, PhysGroup(i))
	}
	bytes := int64(n) * b.Geo.GroupSize()
	bw := float64(bytes) / units.Seconds(done)
	if bw < 2.0e9 {
		t.Errorf("streaming read bandwidth %.0f MB/s, want >2000 MB/s", bw/1e6)
	}
}

func TestBusyUntilTracksLatestWork(t *testing.T) {
	b := newTestBackbone(t)
	done := b.ProgramGroup(0, 0)
	if b.BusyUntil() != done {
		t.Errorf("BusyUntil = %d, want %d", b.BusyUntil(), done)
	}
}

func TestChannelAndDieBusyAccumulate(t *testing.T) {
	b := newTestBackbone(t)
	b.ReadGroup(0, 0)
	if b.ChannelBusy() == 0 || b.DieBusy() == 0 {
		t.Error("busy counters did not accumulate")
	}
	if b.Reads() != 1 {
		t.Errorf("reads = %d", b.Reads())
	}
}
