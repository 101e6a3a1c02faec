// Package flash models the FlashAbacus flash backbone: 32 GB of TLC flash
// organized as 4 NV-DDR2 channels × 4 packages × 2 dies × 2 planes (paper
// §2.2 and Table 1), with 8 KB pages and 256-page blocks.
//
// The unit of address translation is the page group (§4.3): one page from
// each of the 4 channels × 2 planes of a single die row, 64 KB in total.
// Every read, program and erase therefore drives all channels at once, and
// the channels move in lockstep: their buses, and their dies within one die
// row, always hold identical bookings. Timing is modelled with one bus that
// stands for every channel's bus and one sensing/program occupancy per die
// row, so sequential streams pipeline naturally across die rows and
// concurrent kernels contend for the buses the hardware would serialize on.
//
// When Functional is true the backbone stores real page-group payloads, so
// garbage collection, journaling, and kernel reads can be verified end to
// end; otherwise only validity metadata is kept.
package flash

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/units"
)

// Geometry describes the physical organization of the backbone.
type Geometry struct {
	Channels      int   // NV-DDR2 channels (4)
	PackagesPerCh int   // flash packages per channel (4)
	DiesPerPkg    int   // dies per package (2)
	PlanesPerDie  int   // planes per die (2)
	PageSize      int64 // bytes per page (8 KB)
	PagesPerBlock int   // pages per block (256)
	BlocksPerDie  int   // blocks per plane-pair, i.e. per die row slice (256)
	MetaPages     int   // pages reserved at the start of each block for mapping metadata (2)
}

// DefaultGeometry returns the prototype's 32 GB organization.
func DefaultGeometry() Geometry {
	return Geometry{
		Channels:      4,
		PackagesPerCh: 4,
		DiesPerPkg:    2,
		PlanesPerDie:  2,
		PageSize:      8 * units.KB,
		PagesPerBlock: 256,
		BlocksPerDie:  256,
		MetaPages:     2,
	}
}

// DieRows returns the number of die rows: dies per channel, where a die row
// is the set of same-indexed dies across all channels. One page group lives
// entirely within one die row.
func (g Geometry) DieRows() int { return g.PackagesPerCh * g.DiesPerPkg }

// GroupSize returns the bytes in one page group:
// channels × planes-per-die × page size.
func (g Geometry) GroupSize() int64 {
	return int64(g.Channels*g.PlanesPerDie) * g.PageSize
}

// GroupsPerSuperBlock returns the page groups in one super block (one block
// row across a die row), including metadata groups.
func (g Geometry) GroupsPerSuperBlock() int { return g.PagesPerBlock }

// DataGroupsPerSuperBlock returns the usable page groups in one super block
// after reserving the metadata pages.
func (g Geometry) DataGroupsPerSuperBlock() int { return g.PagesPerBlock - g.MetaPages }

// SuperBlocks returns the total number of super blocks.
func (g Geometry) SuperBlocks() int { return g.DieRows() * g.BlocksPerDie }

// TotalGroups returns the total physical page groups (including metadata).
func (g Geometry) TotalGroups() int64 {
	return int64(g.SuperBlocks()) * int64(g.GroupsPerSuperBlock())
}

// Capacity returns the raw capacity in bytes.
func (g Geometry) Capacity() int64 { return g.TotalGroups() * g.GroupSize() }

// Validate reports a configuration error, or nil.
func (g Geometry) Validate() error {
	switch {
	case g.Channels <= 0 || g.PackagesPerCh <= 0 || g.DiesPerPkg <= 0 || g.PlanesPerDie <= 0:
		return fmt.Errorf("flash: non-positive geometry dimension %+v", g)
	case g.PageSize <= 0 || g.PagesPerBlock <= 0 || g.BlocksPerDie <= 0:
		return fmt.Errorf("flash: non-positive page organization %+v", g)
	case g.MetaPages < 0 || g.MetaPages >= g.PagesPerBlock:
		return fmt.Errorf("flash: metadata pages %d out of range", g.MetaPages)
	}
	return nil
}

// Timing holds the TLC device timings (paper §2.2: 8 KB page read ≈ 81 µs,
// program ≈ 2.6 ms) and the per-channel NV-DDR2 bus rate.
type Timing struct {
	ReadPage    units.Duration  // array sensing time (multi-plane)
	ProgramPage units.Duration  // program time (multi-plane)
	EraseBlock  units.Duration  // block erase time (multi-plane)
	ChannelBW   units.Bandwidth // NV-DDR2 bus bandwidth per channel
}

// DefaultTiming returns the prototype's published timings.
func DefaultTiming() Timing {
	return Timing{
		ReadPage:    81 * units.Microsecond,
		ProgramPage: 2600 * units.Microsecond,
		EraseBlock:  5 * units.Millisecond,
		ChannelBW:   200 * units.MBps * 4, // 200 MHz × 8-bit DDR ≈ 800 MB/s
	}
}

// PhysGroup identifies a physical page group by linear index.
type PhysGroup int64

// SuperBlock identifies a super block (a block row across one die row).
type SuperBlock int32

// GroupAddr is the decomposed location of a page group.
type GroupAddr struct {
	DieRow int // die index within each channel
	Block  int // block index within the die row
	Page   int // page index within the block
}

// Decompose splits a linear physical group index into its die-row, block,
// and page coordinates. Consecutive group indices rotate across die rows so
// that log-structured writes interleave dies, as the FPGA controllers do.
func (g Geometry) Decompose(pg PhysGroup) GroupAddr {
	rows := int64(g.DieRows())
	perRow := int64(g.BlocksPerDie) * int64(g.PagesPerBlock)
	row := int64(pg) % rows
	q := int64(pg) / rows
	if q >= perRow {
		panic(fmt.Sprintf("flash: group %d beyond capacity", pg))
	}
	return GroupAddr{
		DieRow: int(row),
		Block:  int(q / int64(g.PagesPerBlock)),
		Page:   int(q % int64(g.PagesPerBlock)),
	}
}

// Compose is the inverse of Decompose.
func (g Geometry) Compose(a GroupAddr) PhysGroup {
	q := int64(a.Block)*int64(g.PagesPerBlock) + int64(a.Page)
	return PhysGroup(q*int64(g.DieRows()) + int64(a.DieRow))
}

// SuperBlockOf returns the super block containing a page group.
func (g Geometry) SuperBlockOf(pg PhysGroup) SuperBlock {
	a := g.Decompose(pg)
	return SuperBlock(a.DieRow*g.BlocksPerDie + a.Block)
}

// GroupSpan returns the first page group of a super block and the index
// stride between consecutive pages: the block's groups are first + i*step
// for i in [0, PagesPerBlock), metadata groups first.
func (g Geometry) GroupSpan(sb SuperBlock) (first PhysGroup, step int64) {
	row := int(sb) / g.BlocksPerDie
	block := int(sb) % g.BlocksPerDie
	return g.Compose(GroupAddr{DieRow: row, Block: block, Page: 0}), int64(g.DieRows())
}

// Backbone is the simulated flash array.
type Backbone struct {
	Geo Geometry
	Tim Timing

	// Functional controls whether page payloads are stored. Timing-only
	// runs (the large paper-scale sweeps) leave it off to bound memory.
	Functional bool

	// bus is every channel's data bus and dies[row] is every channel's die
	// in that die row: a group stripes over all channels of one die row, so
	// each channel books the same request at the same time for the same
	// duration, and one booking stands for all Geo.Channels of them.
	bus  *sim.Pipe
	dies []*sim.Resource
	// wb drains buffered host writes at the aggregate program rate without
	// stalling reads: DDR3L "can take over the roles of the traditional
	// SSD internal cache" (paper §2.2), so data-path programs are absorbed
	// and flushed behind foreground reads. GC migrations, journals, and
	// erases still occupy dies directly.
	wb         *sim.Pipe
	wbPrograms int64

	erases   []int64 // per super block
	programs int64
	reads    int64
	// retrier, when set, charges deterministic extra sensing cycles per
	// read (worn superblocks, read-retry storms); retries/retryTime
	// account for what it injected.
	retrier   ReadRetrier
	retries   int64
	retryTime units.Duration
	store     map[PhysGroup][]byte
	// base is the immutable payload layer of a forked backbone (nil when
	// the backbone was built fresh). Reads fall through to it; writes and
	// erases shadow it in store, where a nil entry is a tombstone — the
	// group was erased or migrated away on this fork and the base payload
	// must not show through. Base buffers are never mutated or recycled.
	base map[PhysGroup][]byte
	// bufPool recycles full-group payload buffers freed by erases so
	// functional runs do not reallocate 64 KB per program in steady state.
	bufPool [][]byte

	rows  int64 // cached Geo.DieRows()
	perCh int64 // cached per-channel bytes of one group
}

// NewBackbone builds a backbone with the given geometry and timing.
func NewBackbone(geo Geometry, tim Timing) (*Backbone, error) {
	if err := geo.Validate(); err != nil {
		return nil, err
	}
	b := &Backbone{
		Geo: geo, Tim: tim, store: make(map[PhysGroup][]byte),
		rows:  int64(geo.DieRows()),
		perCh: int64(geo.PlanesPerDie) * geo.PageSize,
	}
	b.bus = sim.NewPipe("flash-bus", tim.ChannelBW)
	b.dies = make([]*sim.Resource, geo.DieRows())
	for i := range b.dies {
		b.dies[i] = sim.NewResource(fmt.Sprintf("die-row%d", i))
	}
	// Aggregate program rate: every die row can program one group (one
	// multi-plane page per die) per ProgramPage.
	wbBW := units.Bandwidth(int64(geo.DieRows()) * geo.GroupSize() * int64(units.Second) / int64(tim.ProgramPage))
	if wbBW <= 0 {
		return nil, fmt.Errorf("flash: degenerate write-back bandwidth")
	}
	b.wb = sim.NewPipe("flash-writeback", wbBW)
	b.erases = make([]int64, geo.SuperBlocks())
	return b, nil
}

// RowOfRun returns the die row of pg — the only coordinate the timing
// model needs — without the full divisions of Decompose, and panics unless
// all n consecutive groups pg, pg+1, ..., pg+n-1 lie within capacity.
// Consecutive groups rotate die rows, so group pg+i sits on die row
// (RowOfRun(pg, n)+i) mod DieRows.
func (b *Backbone) RowOfRun(pg PhysGroup, n int) int {
	last := int64(pg) + int64(n) - 1
	if last/b.rows >= int64(b.Geo.BlocksPerDie)*int64(b.Geo.PagesPerBlock) {
		panic(fmt.Sprintf("flash: group %d beyond capacity", last))
	}
	return int(int64(pg) % b.rows)
}

// ReadRetrier charges deterministic extra sensing cycles for a read:
// the wear model (internal/faults) implements it. Retries must be a
// pure function of its arguments so shared instances stay
// deterministic across concurrently simulating backbones.
type ReadRetrier interface {
	Retries(at sim.Time, pg PhysGroup, seq int64) int
}

// SetRetrier installs (or, with nil, removes) the per-read wear model.
func (b *Backbone) SetRetrier(r ReadRetrier) { b.retrier = r }

// Retrier returns the installed wear model, or nil.
func (b *Backbone) Retrier() ReadRetrier { return b.retrier }

// RetryStats returns the injected read retries and the total extra
// sensing time they cost.
func (b *Backbone) RetryStats() (retries int64, retryTime units.Duration) {
	return b.retries, b.retryTime
}

// ReadStages returns the two stages a page-group read books on the
// backbone, as sim.Chain stages: the die-row ring, where ring index
// pg mod DieRows senses group pg for ReadPage, then the bus that stands for
// every channel's, moving one channel's share of the group. A caller that
// books them must count the reads with StartReads and charge retries with
// RetryTime.
func (b *Backbone) ReadStages() (sense, bus sim.Stage) {
	return sim.Stage{Ring: b.dies, D: b.Tim.ReadPage}, sim.Stage{Pipe: b.bus, Bytes: b.perCh}
}

// StartReads panics unless the n consecutive groups pg, pg+1, ..., pg+n-1
// all lie within capacity, counts them as reads, and returns the sequence
// number of the first: the retrier sees seq+i for group pg+i.
func (b *Backbone) StartReads(pg PhysGroup, n int) (seq int64) {
	b.RowOfRun(pg, n)
	seq = b.reads
	b.reads += int64(n)
	return seq
}

// RetryTime consults the installed retrier for the read of pg with
// sequence number seq that reaches the dies at at, and returns the extra
// sensing time it charges (0 without a retrier), counted in RetryStats.
// Wear surfaces as latency, never as a failed read.
func (b *Backbone) RetryTime(at sim.Time, pg PhysGroup, seq int64) units.Duration {
	if b.retrier == nil {
		return 0
	}
	n := b.retrier.Retries(at, pg, seq)
	if n <= 0 {
		return 0
	}
	extra := units.Duration(n) * b.Tim.ReadPage
	b.retries += int64(n)
	b.retryTime += extra
	return extra
}

// ReadGroup books a page-group read requested at time at and returns when
// the data is available on the channel side. All channels sense in parallel;
// each channel then moves planes-per-die pages over its bus. An installed
// ReadRetrier stretches the sense phase by whole ReadPage cycles.
func (b *Backbone) ReadGroup(at sim.Time, pg PhysGroup) sim.Time {
	sense := b.Tim.ReadPage + b.RetryTime(at, pg, b.StartReads(pg, 1))
	_, senseEnd := b.dies[int(int64(pg)%b.rows)].Reserve(at, sense)
	_, done := b.bus.Transfer(senseEnd, b.perCh)
	return done
}

// ProgramGroup books a page-group program requested at time at and returns
// when the program completes on all dies. Data moves over each channel bus
// first, then the dies program in parallel.
func (b *Backbone) ProgramGroup(at sim.Time, pg PhysGroup) sim.Time {
	row := b.RowOfRun(pg, 1)
	_, xferEnd := b.bus.Transfer(at, b.perCh)
	_, done := b.dies[row].Reserve(xferEnd, b.Tim.ProgramPage)
	b.programs++
	return done
}

// ProgramGroupBuffered books a host write drained from the DDR3L write
// buffer: it consumes the aggregate program bandwidth of the backbone but
// does not stall foreground reads on the dies. It returns the drain time.
func (b *Backbone) ProgramGroupBuffered(at sim.Time, pg PhysGroup) sim.Time {
	_, end := b.wb.Transfer(at, b.Geo.GroupSize())
	b.programs++
	b.wbPrograms++
	return end
}

// EraseSuper books a super-block erase and returns its completion time.
func (b *Backbone) EraseSuper(at sim.Time, sb SuperBlock) sim.Time {
	_, done := b.dies[int(sb)/b.Geo.BlocksPerDie].Reserve(at, b.Tim.EraseBlock)
	b.erases[sb]++
	if b.Functional {
		pg, step := b.Geo.GroupSpan(sb)
		for p := 0; p < b.Geo.PagesPerBlock; p++ {
			if buf, ok := b.store[pg]; ok {
				if buf != nil {
					b.bufPool = append(b.bufPool, buf)
				}
				delete(b.store, pg)
			}
			if b.base != nil {
				if _, ok := b.base[pg]; ok {
					b.store[pg] = nil // tombstone: hide the base payload
				}
			}
			pg += PhysGroup(step)
		}
	}
	return done
}

// Store saves a functional payload for a page group. It is a no-op unless
// Functional is set. The payload is copied, reusing a buffer recycled from
// an earlier erase (or an overwritten mapping) when one fits.
func (b *Backbone) Store(pg PhysGroup, data []byte) {
	if !b.Functional {
		return
	}
	if int64(len(data)) > b.Geo.GroupSize() {
		panic(fmt.Sprintf("flash: payload %d exceeds group size %d", len(data), b.Geo.GroupSize()))
	}
	if old, ok := b.store[pg]; ok && old != nil {
		b.bufPool = append(b.bufPool, old)
	}
	cp := b.getBuf(len(data))
	copy(cp, data)
	b.store[pg] = cp
}

// getBuf returns a payload buffer of length n, recycling the pool when a
// pooled buffer is large enough.
func (b *Backbone) getBuf(n int) []byte {
	for i := len(b.bufPool) - 1; i >= 0; i-- {
		if cap(b.bufPool[i]) >= n {
			buf := b.bufPool[i][:n]
			b.bufPool[i] = b.bufPool[len(b.bufPool)-1]
			b.bufPool[len(b.bufPool)-1] = nil
			b.bufPool = b.bufPool[:len(b.bufPool)-1]
			return buf
		}
	}
	return make([]byte, n)
}

// Load returns the functional payload for a page group, or nil if none (or
// if the backbone is timing-only). A forked backbone reads through to its
// shared base layer unless this fork has overwritten or erased the group.
func (b *Backbone) Load(pg PhysGroup) []byte {
	if buf, ok := b.store[pg]; ok {
		return buf // includes nil tombstones on forks
	}
	if b.base != nil {
		return b.base[pg]
	}
	return nil
}

// Move copies the functional payload from src to dst (used by GC migration).
// On a forked backbone a payload still living in the shared base layer is
// copied into fork-private storage first, so sibling forks and the image
// never observe the migration.
func (b *Backbone) Move(src, dst PhysGroup) {
	if !b.Functional {
		return
	}
	if d, ok := b.store[src]; ok {
		if d == nil {
			return // tombstone: nothing to move
		}
		b.store[dst] = d
		if b.base != nil {
			b.store[src] = nil
		} else {
			delete(b.store, src)
		}
		return
	}
	if b.base != nil {
		if d, ok := b.base[src]; ok {
			cp := b.getBuf(len(d))
			copy(cp, d)
			b.store[dst] = cp
			b.store[src] = nil
		}
	}
}

// SnapshotStore freezes the current functional payloads into an immutable
// base layer shared between the returned map and this backbone: the live
// backbone keeps working copy-on-write over it, exactly like a fork. It
// returns nil when no payloads exist (timing-only runs), so images of
// timing-only devices carry no store at all.
func (b *Backbone) SnapshotStore() map[PhysGroup][]byte {
	if len(b.store) == 0 && b.base == nil {
		return nil
	}
	flat := make(map[PhysGroup][]byte, len(b.base)+len(b.store))
	for pg, buf := range b.base {
		flat[pg] = buf
	}
	for pg, buf := range b.store {
		if buf == nil {
			delete(flat, pg)
		} else {
			flat[pg] = buf
		}
	}
	b.base = flat
	b.store = make(map[PhysGroup][]byte)
	return flat
}

// AttachBase installs an immutable payload layer captured by SnapshotStore
// on a freshly built backbone (the fork path). The map and its buffers must
// never be mutated by the caller.
func (b *Backbone) AttachBase(base map[PhysGroup][]byte) {
	b.base = base
}

// EraseCount returns the erase count of a super block.
func (b *Backbone) EraseCount(sb SuperBlock) int64 { return b.erases[sb] }

// TotalErases returns the sum of all erase counts.
func (b *Backbone) TotalErases() int64 {
	var n int64
	for _, e := range b.erases {
		n += e
	}
	return n
}

// Reads and Programs return operation counts; ChannelBusy returns the total
// busy time across channel buses (for energy accounting).
func (b *Backbone) Reads() int64    { return b.reads }
func (b *Backbone) Programs() int64 { return b.programs }

// ChannelBusy returns the summed busy time of all channel buses.
func (b *Backbone) ChannelBusy() units.Duration {
	return b.bus.Busy() * units.Duration(b.Geo.Channels)
}

// DieBusy returns the summed busy time of all dies, including the die time
// buffered programs consume while draining (each buffered group programs
// one die on every channel of its row for ProgramPage).
func (b *Backbone) DieBusy() units.Duration {
	d := units.Duration(b.wbPrograms) * b.Tim.ProgramPage
	for _, r := range b.dies {
		d += r.Busy()
	}
	return d * units.Duration(b.Geo.Channels)
}

// BusyUntil returns the latest instant any die, channel, or the write-back
// drain is booked, which bounds the device-side drain time.
func (b *Backbone) BusyUntil() sim.Time {
	t := units.MaxTime(b.wb.FreeAt(), b.bus.FreeAt())
	for _, r := range b.dies {
		if r.FreeAt() > t {
			t = r.FreeAt()
		}
	}
	return t
}
