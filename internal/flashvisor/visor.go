package flashvisor

import (
	"fmt"

	"repro/internal/flash"
	"repro/internal/flashctrl"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/sim"
	"repro/internal/units"
)

// Config tunes the Flashvisor LWP.
type Config struct {
	// PerGroupCost is the Flashvisor processing time per page-group
	// request: message parse, scratchpad table walk, and request issue.
	PerGroupCost units.Duration
	// OverProvision is the physical capacity fraction withheld from the
	// logical space.
	OverProvision float64
	// JournalOnRollover charges the metadata-page programs (the first two
	// pages of each block, paper §4.3) when the log head enters a fresh
	// super block.
	JournalOnRollover bool
	// GlobalLock degrades the range-lock tree to one device-wide lock;
	// it exists for the protection ablation.
	GlobalLock bool
}

// DefaultConfig returns the prototype-calibrated parameters.
func DefaultConfig() Config {
	return Config{
		PerGroupCost:      600, // ~600 ns: queue pop, table walk in scratchpad, issue
		OverProvision:     0.07,
		JournalOnRollover: true,
	}
}

// Stats counts Flashvisor activity for reports and tests.
type Stats struct {
	ReadGroups    int64
	WriteGroups   int64
	FGReclaims    int64
	Migrated      int64
	JournalWrites int64
	UnmappedReads int64
}

// Visor is the Flashvisor LWP: every flash-backbone request from every
// kernel funnels through its message queue, its occupancy resource, and its
// range locks — there is no direct datapath from worker LWPs to the FPGA
// controllers (paper §4.3 "Protection and access control").
type Visor struct {
	Cfg  Config
	Geo  flash.Geometry
	FTL  *FTL
	Lock RangeLocks

	ctrl *flashctrl.Complex
	ddr  *mem.Memory
	spad *mem.Memory
	inq  *noc.MsgQueue
	cpu  *sim.Resource

	journalCursor int64
	stats         Stats

	// Reused hot-path scratch: composeBuf backs the read-modify-write of
	// functional sub-group writes; migrateScratch collects a GC victim's
	// valid groups. Both live for the Visor's lifetime so the per-screen
	// and per-reclaim paths stay allocation-free.
	composeBuf     []byte
	migrateScratch []MigratePair
}

// New wires a Visor over the controller complex and memories.
func New(cfg Config, ctrl *flashctrl.Complex, ddr, spad *mem.Memory, net *noc.Network) (*Visor, error) {
	ftl, err := NewFTL(ctrl.BB.Geo, cfg.OverProvision)
	if err != nil {
		return nil, err
	}
	return wireVisor(cfg, ctrl, ddr, spad, net, ftl)
}

// NewFromImage wires a Visor whose FTL forks a snapshotted image instead of
// formatting from scratch — the device-fork path. The image must have been
// captured at the same geometry the controller complex runs.
func NewFromImage(cfg Config, ctrl *flashctrl.Complex, ddr, spad *mem.Memory, net *noc.Network, img *FTLImage) (*Visor, error) {
	if img.Geometry() != ctrl.BB.Geo {
		return nil, fmt.Errorf("flashvisor: image geometry %+v does not match backbone %+v", img.Geometry(), ctrl.BB.Geo)
	}
	return wireVisor(cfg, ctrl, ddr, spad, net, NewFTLFromImage(img))
}

func wireVisor(cfg Config, ctrl *flashctrl.Complex, ddr, spad *mem.Memory, net *noc.Network, ftl *FTL) (*Visor, error) {
	if cfg.PerGroupCost <= 0 {
		return nil, fmt.Errorf("flashvisor: non-positive per-group cost")
	}
	if ftl.MappingBytes() > spad.Cfg.Size {
		return nil, fmt.Errorf("flashvisor: mapping table (%s) does not fit scratchpad (%s)",
			units.FormatBytes(ftl.MappingBytes()), units.FormatBytes(spad.Cfg.Size))
	}
	ctrl.SetLanding(ddr.Pipe()) // reads land in DDR3L
	return &Visor{
		Cfg:  cfg,
		Geo:  ctrl.BB.Geo,
		FTL:  ftl,
		ctrl: ctrl,
		ddr:  ddr,
		spad: spad,
		inq:  net.NewQueue("flashvisor-inq"),
		cpu:  sim.NewResource("flashvisor-lwp"),
	}, nil
}

// Stats returns a copy of the activity counters.
func (v *Visor) Stats() Stats { return v.stats }

// CPUBusy returns the Flashvisor LWP occupancy (for energy accounting:
// InterSt keeps this core powered for its whole run, §5.3).
func (v *Visor) CPUBusy() units.Duration { return v.cpu.Busy() }

// QueueMessages returns how many requests crossed the hardware queue.
func (v *Visor) QueueMessages() int64 { return v.inq.Sent() }

// groupRange converts a byte range into logical page groups.
func (v *Visor) groupRange(addr, bytes int64) (lo, hi int64) {
	gs := v.Geo.GroupSize()
	lo = addr / gs
	hi = (addr + bytes + gs - 1) / gs
	return lo, hi
}

func (v *Visor) lockRange(lo, hi int64) (int64, int64) {
	if v.Cfg.GlobalLock {
		return 0, v.FTL.LogicalGroups()
	}
	return lo, hi
}

// StartupLatency approximates the first-group latency of a streaming read:
// queue delivery, one translation, one device read. The overlap execution
// model charges it before compute/IO streaming begins.
func (v *Visor) StartupLatency() units.Duration {
	return 2*units.Microsecond + v.Cfg.PerGroupCost + v.ctrl.Cfg.TagService +
		v.ctrl.BB.Tim.ReadPage + v.ctrl.BB.Tim.ChannelBW.DurationFor(int64(v.Geo.PlanesPerDie)*v.Geo.PageSize)
}

// MapRead maps a kernel data section [addr, addr+bytes) for reading: the
// kernel passes a queue message, Flashvisor checks the range lock,
// translates each group, and issues device reads; the data lands in DDR3L.
// It returns the completion time and, for functional backbones, the bytes.
func (v *Visor) MapRead(at sim.Time, owner int, addr, bytes int64) (sim.Time, []byte, error) {
	return v.MapReadInto(at, owner, addr, bytes, nil)
}

// MapReadInto is MapRead with a caller-provided destination buffer: when the
// backbone is functional and dst has capacity for the section, the payload
// lands in dst instead of a fresh allocation (the per-screen reuse path).
//
// Physically contiguous runs of groups — the common case after sequential
// population — are processed as batches: the whole run's translation work is
// charged to the Flashvisor LWP and scratchpad as one analytic reservation
// each, and the run crosses into the controller complex once, which books
// its device reads and DDR3L landings as one pipeline. The per-resource
// request sequence is identical to the per-group loop, so timing is
// bit-for-bit unchanged; only the bookkeeping cost shrinks. A timing-only
// read books a whole run in one call and allocates nothing.
func (v *Visor) MapReadInto(at sim.Time, owner int, addr, bytes int64, dst []byte) (sim.Time, []byte, error) {
	if bytes <= 0 {
		return at, nil, fmt.Errorf("flashvisor: non-positive read size %d", bytes)
	}
	lo, hi := v.groupRange(addr, bytes)
	if hi > v.FTL.LogicalGroups() {
		return at, nil, fmt.Errorf("flashvisor: read [%d,%d) beyond logical space", lo, hi)
	}
	deliver := v.inq.Send(at)
	llo, lhi := v.lockRange(lo, hi)
	grant := v.Lock.Grant(deliver, llo, lhi, LockRead)

	var data []byte
	functional := v.ctrl.BB.Functional
	if functional {
		if int64(cap(dst)) >= bytes {
			data = dst[:bytes]
			clear(data)
		} else {
			data = make([]byte, bytes)
		}
	}
	done := grant
	gs := v.Geo.GroupSize()
	cost := v.Cfg.PerGroupCost
	for lg := lo; lg < hi; {
		pg, ok := v.FTL.Lookup(lg)
		if !ok {
			// Charge the failed translation exactly as the per-group loop
			// did — queue pop and table walk happen before the miss.
			_, issued := v.cpu.Reserve(grant, cost)
			v.spad.Access(issued, 4)
			v.stats.UnmappedReads++
			return at, nil, fmt.Errorf("flashvisor: kernel %d read of unmapped group %d", owner, lg)
		}
		// Extend the physically contiguous run starting at (lg, pg).
		n := int64(1)
		for lg+n < hi {
			next, ok := v.FTL.Lookup(lg + n)
			if !ok || next != pg+flash.PhysGroup(n) {
				break
			}
			n++
		}
		runStart, _ := v.cpu.ReserveN(grant, cost, int(n))
		first := runStart + cost // issue time of the run's first group
		v.spad.AccessUniform(first, cost, int(n), 4)
		var copyOut func(int, sim.Time)
		if functional {
			base := lg
			copyOut = func(i int, _ sim.Time) {
				copyGroupOut(data, addr, bytes, base+int64(i), gs, v.ctrl.BB.Load(pg+flash.PhysGroup(i)))
			}
		}
		done = max(done, v.ctrl.ReadGroupsSeq(first, cost, pg, int(n), copyOut))
		v.stats.ReadGroups += n
		lg += n
	}
	v.Lock.Hold(llo, lhi, LockRead, owner, done)
	return done, data, nil
}

// MapWrite maps a kernel data section for writing: groups are allocated at
// the log head, mappings commit, and the payload is absorbed by the DDR3L
// write buffer while the device programs proceed behind it. The returned
// time is when the kernel may reuse its buffer (DDR3L-visible), not when
// the TLC programs finish; PersistedUntil exposes the drain point.
func (v *Visor) MapWrite(at sim.Time, owner int, addr, bytes int64, data []byte) (sim.Time, error) {
	if bytes <= 0 {
		return at, fmt.Errorf("flashvisor: non-positive write size %d", bytes)
	}
	lo, hi := v.groupRange(addr, bytes)
	if hi > v.FTL.LogicalGroups() {
		return at, fmt.Errorf("flashvisor: write [%d,%d) beyond logical space", lo, hi)
	}
	deliver := v.inq.Send(at)
	llo, lhi := v.lockRange(lo, hi)
	grant := v.Lock.Grant(deliver, llo, lhi, LockWrite)

	done := grant
	gs := v.Geo.GroupSize()
	cost := v.Cfg.PerGroupCost
	functional := v.ctrl.BB.Functional
	for lg := lo; lg < hi; {
		// Fast path: while the log head can absorb a run of allocations
		// with no rollover (hence no journal) and no reclaim, the run's
		// translation work batches into one LWP and one scratchpad
		// reservation, exactly like the read path.
		if n := int64(v.FTL.AllocRunLen(int(hi - lg))); n > 0 {
			runStart, _ := v.cpu.ReserveN(grant, cost, int(n))
			first := runStart + cost
			v.spad.AccessUniform(first, cost, int(n), 4)
			for i := int64(0); i < n; i++ {
				issued := first + sim.Duration(i)*cost
				var payload []byte
				if functional {
					payload = v.composeGroup(lg+i, addr, bytes, data)
				}
				pg, rolled, err := v.FTL.Alloc(false)
				if err != nil || rolled {
					return at, fmt.Errorf("flashvisor: allocation run diverged at group %d (rolled=%v, err=%v)", lg+i, rolled, err)
				}
				if err := v.FTL.Commit(lg+i, pg); err != nil {
					return at, err
				}
				buffered := v.ddr.Access(issued, gs)
				v.ctrl.ProgramGroupBuffered(buffered, pg) // drains behind reads
				if buffered > done {
					done = buffered
				}
				v.stats.WriteGroups++
				if payload != nil {
					v.ctrl.BB.Store(pg, payload)
				}
			}
			lg += n
			continue
		}
		// Slow path: the next allocation rolls the log head over or needs
		// a foreground reclaim; process this one group at full fidelity.
		_, issued := v.cpu.Reserve(grant, cost)
		v.spad.Access(issued, 4)
		// Partial-group writes must preserve the untouched bytes of the
		// old version, so capture it before the mapping moves.
		var payload []byte
		if functional {
			payload = v.composeGroup(lg, addr, bytes, data)
		}
		pg, rolled, err := v.FTL.Alloc(false)
		if err == ErrNoSpace {
			reclaimed, rerr := v.ReclaimForeground(issued)
			if rerr != nil {
				return at, rerr
			}
			issued = reclaimed
			pg, rolled, err = v.FTL.Alloc(false)
		}
		if err != nil {
			return at, err
		}
		if rolled && v.Cfg.JournalOnRollover {
			v.journalActive(issued, pg)
		}
		if err := v.FTL.Commit(lg, pg); err != nil {
			return at, err
		}
		buffered := v.ddr.Access(issued, gs)
		v.ctrl.ProgramGroupBuffered(buffered, pg) // drains behind reads
		if buffered > done {
			done = buffered
		}
		v.stats.WriteGroups++
		if payload != nil {
			v.ctrl.BB.Store(pg, payload)
		}
		lg++
	}
	v.Lock.Hold(llo, lhi, LockWrite, owner, done)
	return done, nil
}

// journalActive charges the metadata-page programs for the freshly opened
// super block (the one holding pg): the block's page-table entries persist
// in its first pages.
func (v *Visor) journalActive(at sim.Time, pg flash.PhysGroup) {
	sb := v.FTL.ActiveSuperBlock(pg)
	meta, step := v.Geo.GroupSpan(sb)
	for p := 0; p < v.Geo.MetaPages; p++ {
		v.ctrl.ProgramGroup(at, meta)
		v.stats.JournalWrites++
		meta += flash.PhysGroup(step)
	}
}

// JournalSnapshot charges the device-side work for a metadata snapshot dump
// of the given size (Storengine's periodic scratchpad journal): a scratchpad
// read plus programs into the reserved metadata pages, rotating across super
// blocks so consecutive snapshots spread over die rows. It returns the
// completion time.
func (v *Visor) JournalSnapshot(at sim.Time, bytes int64) sim.Time {
	if bytes <= 0 {
		return at
	}
	groups := units.CeilDiv(bytes, v.Geo.GroupSize())
	v.spad.Access(at, bytes)
	t := at
	for i := int64(0); i < groups; i++ {
		sb := flash.SuperBlock(v.journalCursor % int64(v.Geo.SuperBlocks()))
		page := int(v.journalCursor) % v.Geo.MetaPages
		v.journalCursor++
		row := int(sb) / v.Geo.BlocksPerDie
		block := int(sb) % v.Geo.BlocksPerDie
		pg := v.Geo.Compose(flash.GroupAddr{DieRow: row, Block: block, Page: page})
		t = v.ctrl.ProgramGroup(t, pg)
		v.stats.JournalWrites++
	}
	return t
}

// ReclaimForeground performs the on-demand reclaim Flashvisor issues when
// the log head runs out of groups (§4.3 "Flashvisor generates a request to
// reclaim a physical block"). Round-robin victims can be fully valid and net
// zero space, so it loops until a host allocation can proceed — this
// blocking, on-Flashvisor-time work is exactly the overhead Storengine
// exists to hide.
func (v *Visor) ReclaimForeground(at sim.Time) (sim.Time, error) {
	t := at
	for i := 0; !v.FTL.CanAllocHost(); i++ {
		if i > 2*v.Geo.SuperBlocks()+2 {
			return at, fmt.Errorf("flashvisor: reclaim loop freed no space after %d victims", i)
		}
		done, err := v.Reclaim(t, v.cpu, false)
		if err != nil {
			return at, err
		}
		v.stats.FGReclaims++
		t = done
	}
	return t, nil
}

// Reclaim migrates one victim super block and returns when the erase
// completes. The work is charged to the given LWP resource (Flashvisor in
// the foreground path, Storengine in the background path). greedy selects
// the ablation victim policy.
func (v *Visor) Reclaim(at sim.Time, lwpRes *sim.Resource, greedy bool) (sim.Time, error) {
	var (
		sb flash.SuperBlock
		ok bool
	)
	if greedy {
		sb, ok = v.FTL.VictimGreedy()
	} else {
		sb, ok = v.FTL.VictimRoundRobin()
	}
	if !ok {
		return at, fmt.Errorf("flashvisor: no reclaimable super blocks")
	}
	t := at
	v.migrateScratch = v.FTL.AppendValidGroups(v.migrateScratch[:0], sb)
	for _, pair := range v.migrateScratch {
		// Lock the logical group against kernel access during the move.
		grant := v.Lock.Grant(t, pair.Logical, pair.Logical+1, LockWrite)
		_, issued := lwpRes.Reserve(grant, v.Cfg.PerGroupCost)
		dst, _, err := v.FTL.Alloc(true)
		if err != nil {
			return at, fmt.Errorf("flashvisor: reclaim has nowhere to migrate: %w", err)
		}
		moved := v.ctrl.MigrateGroup(issued, pair.Phys, dst)
		v.FTL.Retarget(pair.Logical, dst)
		v.Lock.Hold(pair.Logical, pair.Logical+1, LockWrite, -1, moved)
		v.stats.Migrated++
		t = moved
	}
	erased := v.ctrl.EraseSuper(t, sb)
	v.FTL.Release(sb)
	return erased, nil
}

// Populate installs input data at a logical byte address without consuming
// simulated time — the experiment-setup equivalent of the factory image the
// paper's testbed flashes before each run. Payloads are stored when the
// backbone is functional; data may be nil for timing-only population.
func (v *Visor) Populate(addr, bytes int64, data []byte) error {
	if bytes <= 0 {
		return fmt.Errorf("flashvisor: non-positive populate size %d", bytes)
	}
	lo, hi := v.groupRange(addr, bytes)
	if hi > v.FTL.LogicalGroups() {
		return fmt.Errorf("flashvisor: populate [%d,%d) beyond logical space (%d groups)",
			lo, hi, v.FTL.LogicalGroups())
	}
	for lg := lo; lg < hi; lg++ {
		var payload []byte
		if v.ctrl.BB.Functional && data != nil {
			payload = v.composeGroup(lg, addr, bytes, data)
		}
		pg, _, err := v.FTL.Alloc(false)
		if err == ErrNoSpace {
			if _, err = v.ReclaimForeground(0); err != nil {
				return err
			}
			pg, _, err = v.FTL.Alloc(false)
		}
		if err != nil {
			return err
		}
		if err := v.FTL.Commit(lg, pg); err != nil {
			return err
		}
		if payload != nil {
			v.ctrl.BB.Store(pg, payload)
		}
	}
	return nil
}

// composeGroup builds the full 64 KB payload of logical group lg after
// overlaying the byte range [addr, addr+bytes) from data (nil data writes
// zeros): the read-modify-write a sub-group write needs to keep the rest of
// the group intact. The returned buffer is the Visor's reusable scratch —
// valid until the next composeGroup call; Backbone.Store copies it.
func (v *Visor) composeGroup(lg int64, addr, bytes int64, data []byte) []byte {
	gs := v.Geo.GroupSize()
	if int64(cap(v.composeBuf)) < gs {
		v.composeBuf = make([]byte, gs)
	}
	buf := v.composeBuf[:gs]
	clear(buf)
	if old, ok := v.FTL.Lookup(lg); ok {
		copy(buf, v.ctrl.BB.Load(old))
	}
	gStart := lg * gs
	lo, hi := gStart, gStart+gs
	if addr > lo {
		lo = addr
	}
	if addr+bytes < hi {
		hi = addr + bytes
	}
	if hi > lo && data != nil && addr+int64(len(data)) >= hi {
		copy(buf[lo-gStart:hi-gStart], data[lo-addr:hi-addr])
	}
	return buf
}

// ReadBytes fetches functional payload bytes for [addr, addr+bytes) without
// consuming simulated time; tests use it to verify data integrity across
// garbage collection.
func (v *Visor) ReadBytes(addr, bytes int64) ([]byte, error) {
	lo, hi := v.groupRange(addr, bytes)
	out := make([]byte, bytes)
	for lg := lo; lg < hi; lg++ {
		pg, ok := v.FTL.Lookup(lg)
		if !ok {
			return nil, fmt.Errorf("flashvisor: unmapped group %d", lg)
		}
		copyGroupOut(out, addr, bytes, lg, v.Geo.GroupSize(), v.ctrl.BB.Load(pg))
	}
	return out, nil
}

// PersistedUntil returns when all background device work drains.
func (v *Visor) PersistedUntil() sim.Time { return v.ctrl.BB.BusyUntil() }

// Controller exposes the FPGA complex for device-level accounting.
func (v *Visor) Controller() *flashctrl.Complex { return v.ctrl }

// copyGroupOut copies the part of logical group lg that intersects the byte
// range [addr, addr+bytes) from payload into dst (dst covers the range).
func copyGroupOut(dst []byte, addr, bytes, lg, gs int64, payload []byte) {
	if payload == nil {
		return
	}
	gStart := lg * gs
	lo, hi := gStart, gStart+int64(len(payload))
	if addr > lo {
		lo = addr
	}
	if addr+bytes < hi {
		hi = addr + bytes
	}
	if hi <= lo {
		return
	}
	copy(dst[lo-addr:hi-addr], payload[lo-gStart:hi-gStart])
}
