// Package flashctrl models the FPGA-based flash controllers of the backend
// storage complex (paper §2.2): one controller per channel converting
// network-side requests into the flash clock domain through inbound and
// outbound tag queues, behind a four-lane Serial RapidIO link.
//
// A sequential read run crosses one fixed pipeline: the tag queue of the
// group's controller, die-row sensing, the channel bus, the SRIO link and,
// once the Flashvisor wires it, the DDR3L landing. ReadGroupsSeq books the
// run as a sim.Chain over those stages. The chain steps the per-group
// recurrence until it can prove the pipeline periodic over lcm(controllers,
// die rows) groups, then advances whole periods in closed form; the
// sim.Chain documentation states the rule and why it is exact. In the paper
// configuration the dies, bus and link saturate within a few periods, so a
// run of hundreds of groups costs a few dozen stepped groups.
package flashctrl

import (
	"fmt"

	"repro/internal/flash"
	"repro/internal/sim"
	"repro/internal/units"
)

// Config holds the controller-complex parameters.
type Config struct {
	// SRIOBW is the aggregate FMC link bandwidth (4 lanes × 5 Gbps).
	SRIOBW units.Bandwidth
	// TagService is the per-request occupancy of a controller's tag queue
	// pair (request decode on the inbound queue, completion post on the
	// outbound queue).
	TagService units.Duration
	// TagDepth is the number of outstanding tags per controller; requests
	// beyond it queue in the controller, modelled by the serial tag
	// resource.
	TagDepth int
}

// DefaultConfig returns the prototype parameters: 4 × 5 Gbps SRIO
// (2.5 GB/s aggregate) and a ~1 µs per-request FPGA handling cost.
func DefaultConfig() Config {
	return Config{
		SRIOBW:     2500 * units.MBps,
		TagService: 1 * units.Microsecond,
		TagDepth:   16,
	}
}

// Complex wires the per-channel controllers onto a flash backbone.
type Complex struct {
	Cfg Config
	BB  *flash.Backbone

	srio *sim.Pipe
	tags []*sim.Resource // per channel-controller request handling

	// read is the sequential-read pipeline ReadGroupsSeq books: tag queue,
	// die-row sensing, channel bus, SRIO and the landing pipe, if any. It is
	// built on the first read, so devices that never read carry none.
	// retry is its charge hook, bound once (a method value per call would
	// allocate); runPG and runSeq locate the run it charges.
	landing *sim.Pipe
	read    *sim.Chain
	retry   func(i int, at sim.Time) sim.Duration
	runPG   flash.PhysGroup
	runSeq  int64
}

// New builds the controller complex for bb.
func New(cfg Config, bb *flash.Backbone) (*Complex, error) {
	if cfg.SRIOBW <= 0 {
		return nil, fmt.Errorf("flashctrl: non-positive SRIO bandwidth")
	}
	if cfg.TagDepth <= 0 {
		return nil, fmt.Errorf("flashctrl: non-positive tag depth")
	}
	c := &Complex{Cfg: cfg, BB: bb, srio: sim.NewPipe("srio", cfg.SRIOBW)}
	c.tags = make([]*sim.Resource, bb.Geo.Channels)
	for i := range c.tags {
		c.tags[i] = sim.NewResource(fmt.Sprintf("fctl%d-tags", i))
	}
	return c, nil
}

// SetLanding makes the pipe a read's data lands in (the DDR3L) the last
// stage of ReadGroupsSeq; nil ends the pipeline at the SRIO link.
func (c *Complex) SetLanding(p *sim.Pipe) { c.landing, c.read = p, nil }

// readChain builds the pipeline ReadGroupsSeq books.
func (c *Complex) readChain() *sim.Chain {
	sense, bus := c.BB.ReadStages()
	gs := c.BB.Geo.GroupSize()
	stages := []sim.Stage{{Ring: c.tags, D: c.Cfg.TagService}, sense, bus, {Pipe: c.srio, Bytes: gs}}
	if c.landing != nil {
		stages = append(stages, sim.Stage{Pipe: c.landing, Bytes: gs})
	}
	read := sim.NewChain(stages...)
	read.ChargeAt = 1 // die-row sensing
	c.retry = c.retryTime
	return read
}

// retryTime charges group i of the current run its read retries.
func (c *Complex) retryTime(i int, at sim.Time) sim.Duration {
	return c.BB.RetryTime(at, c.runPG+flash.PhysGroup(i), c.runSeq+int64(i))
}

// tagFor picks the controller that owns a page group. Every channel holds a
// slice of the group, so the request is decoded by the controller of the
// group's first channel and fanned out in hardware; one tag reservation
// approximates the FPGA cost.
func (c *Complex) tagFor(pg flash.PhysGroup) *sim.Resource {
	return c.tags[int(pg)%len(c.tags)]
}

// ReadGroup performs a device-side page-group read: tag decode, flash read,
// then the payload crosses the SRIO link toward the processor network.
// It returns the instant the data is on the network side.
func (c *Complex) ReadGroup(at sim.Time, pg flash.PhysGroup) sim.Time {
	_, decoded := c.tagFor(pg).Reserve(at, c.Cfg.TagService)
	sensed := c.BB.ReadGroup(decoded, pg)
	_, end := c.srio.Transfer(sensed, c.BB.Geo.GroupSize())
	return end
}

// ReadGroupsSeq books n device-side reads of the consecutive page groups
// pg, pg+1, ..., the i'th requested at at+i*stride, through the tag queues,
// die rows, channel bus, SRIO link and landing pipe. Consecutive groups
// rotate controllers and die rows, so the tag index and the die row each
// advance by one per group. Every reservation equals that of n ReadGroup
// calls, each followed by a landing transfer. ready, when non-nil, receives
// each group's exact completion in order; ReadGroupsSeq returns the latest.
// An installed retrier is consulted once per group with the (at, pg, seq)
// ReadGroup would give it, and a charged group is always stepped.
func (c *Complex) ReadGroupsSeq(at sim.Time, stride sim.Duration, pg flash.PhysGroup, n int, ready func(i int, end sim.Time)) sim.Time {
	if c.read == nil {
		c.read = c.readChain()
	}
	c.runPG, c.runSeq = pg, c.BB.StartReads(pg, n)
	c.read.Charge = nil
	if c.BB.Retrier() != nil {
		c.read.Charge = c.retry
	}
	return c.read.Book(at, stride, int64(pg), n, ready)
}

// ProgramGroup moves a page group over SRIO and programs it. It returns
// when the program finishes on the dies.
func (c *Complex) ProgramGroup(at sim.Time, pg flash.PhysGroup) sim.Time {
	_, arrived := c.srio.Transfer(at, c.BB.Geo.GroupSize())
	_, decoded := c.tagFor(pg).Reserve(arrived, c.Cfg.TagService)
	return c.BB.ProgramGroup(decoded, pg)
}

// ProgramGroupBuffered moves a page group over SRIO into the DDR3L-backed
// write buffer and drains it at the backbone's aggregate program rate,
// without stalling foreground reads (paper §2.2's internal-cache role).
func (c *Complex) ProgramGroupBuffered(at sim.Time, pg flash.PhysGroup) sim.Time {
	_, arrived := c.srio.Transfer(at, c.BB.Geo.GroupSize())
	_, decoded := c.tagFor(pg).Reserve(arrived, c.Cfg.TagService)
	return c.BB.ProgramGroupBuffered(decoded, pg)
}

// EraseSuper forwards a super-block erase. Erases carry no payload, only a
// command tag.
func (c *Complex) EraseSuper(at sim.Time, sb flash.SuperBlock) sim.Time {
	_, decoded := c.tags[int(sb)%len(c.tags)].Reserve(at, c.Cfg.TagService)
	return c.BB.EraseSuper(decoded, sb)
}

// MigrateGroup is a device-internal copy used by Storengine's garbage
// collection: read src, program dst, without crossing SRIO (copy-back stays
// inside the storage complex). The functional payload moves with it.
func (c *Complex) MigrateGroup(at sim.Time, src, dst flash.PhysGroup) sim.Time {
	_, decoded := c.tagFor(src).Reserve(at, c.Cfg.TagService)
	read := c.BB.ReadGroup(decoded, src)
	done := c.BB.ProgramGroup(read, dst)
	c.BB.Move(src, dst)
	return done
}

// SRIOBytes returns total bytes moved over the link.
func (c *Complex) SRIOBytes() int64 { return c.srio.Bytes() }

// TagBusy returns the summed controller occupancy.
func (c *Complex) TagBusy() units.Duration {
	var d units.Duration
	for _, t := range c.tags {
		d += t.Busy()
	}
	return d
}
