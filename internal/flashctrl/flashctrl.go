// Package flashctrl models the FPGA-based flash controllers of the backend
// storage complex (paper §2.2): one controller per channel converting
// network-side requests into the flash clock domain through inbound and
// outbound tag queues, behind a four-lane Serial RapidIO link.
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
// pg, pg+1, ..., the i'th requested at at+i*stride, and calls ready with
// each network-side completion time in order. Every reservation is identical
// to n individual ReadGroup calls — consecutive groups rotate controllers and
// die rows, so the tag index and the die row each advance by one per group —
// but the whole contiguous run crosses the visor/controller boundary once
// and checks flash capacity once instead of once per group.
func (c *Complex) ReadGroupsSeq(at sim.Time, stride sim.Duration, pg flash.PhysGroup, n int, ready func(i int, end sim.Time)) {
	nt, nr := len(c.tags), c.BB.Geo.DieRows()
	ti := int(int64(pg) % int64(nt))
	row := c.BB.RowOfRun(pg, n)
	gs := c.BB.Geo.GroupSize()
	for i := 0; i < n; i++ {
		_, decoded := c.tags[ti].Reserve(at+sim.Duration(i)*stride, c.Cfg.TagService)
		sensed := c.BB.ReadGroupOnRow(decoded, pg+flash.PhysGroup(i), row)
		_, end := c.srio.Transfer(sensed, gs)
		ready(i, end)
		ti++
		if ti == nt {
			ti = 0
		}
		row++
		if row == nr {
			row = 0
		}
	}
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

// SRIOBusy returns the link occupancy (for energy accounting).
func (c *Complex) SRIOBusy() units.Duration { return c.srio.Busy() }

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
