package core

import (
	"errors"
	"fmt"

	"repro/internal/flash"
	"repro/internal/flashvisor"
)

// ErrUnforkable marks device state an Image cannot capture. Populating a
// pathological bundle (overlapping ranges, or more data than the free pool
// absorbs) can trigger foreground reclaims during setup — visor stats,
// erase counts, and die-timing reservations the image does not carry.
// Snapshot refuses such devices; callers fall back to the plain lifecycle,
// which remains byte-identical by construction.
var ErrUnforkable = errors.New("core: device state not capturable in an image")

// BuildKey identifies the device state a populated image captures: two
// configurations with equal BuildKeys populate to byte-identical device
// state, so one image serves both. The key deliberately excludes every
// run-time knob — scheduler, worker count, cost model, timings, power
// rates, series collection — because none of them shape the formatted FTL,
// the flash payload layer, or the host store:
//
//   - FlashAbacus selects which store Populate routes to (Flashvisor's
//     backbone vs the host SSD model);
//   - Functional selects whether payloads are retained at all;
//   - Geo and OverProvision shape the formatted FTL.
type BuildKey struct {
	FlashAbacus   bool
	Functional    bool
	Geo           flash.Geometry
	OverProvision float64
}

// BuildKey derives the image-compatibility key of a configuration.
func (c Config) BuildKey() BuildKey {
	return BuildKey{
		FlashAbacus:   c.System.IsFlashAbacus(),
		Functional:    c.Functional,
		Geo:           c.Flash,
		OverProvision: c.Visor.OverProvision,
	}
}

// Image is an immutable snapshot of a device taken after format, populate,
// and (optionally) offload, but before Run: the FTL mapping tables, the
// functional flash payloads and host-store payloads, and the offloaded
// kernel set. Fork builds a fresh runnable device from it copy-on-write —
// the mapping-table segments and payload buffers stay shared until a fork
// first writes them — so a suite cell, cluster card, or work-steal probe
// starts in O(dirty state) instead of rebuilding the device lifecycle.
//
// An Image is safe for concurrent Forks from multiple goroutines.
type Image struct {
	key       BuildKey
	ftl       *flashvisor.FTLImage
	flashBase map[flash.PhysGroup][]byte
	hostBase  map[int64][]byte
	apps      []offloadedApp
}

// Snapshot captures the device's pre-run state as an immutable image. The
// device stays fully usable — its mutable layers switch to copy-on-write
// over the frozen state — but a device that already ran cannot be
// snapshotted: its timing and mapping state reflect the run.
func (d *Device) Snapshot() (*Image, error) {
	if d.ran {
		return nil, fmt.Errorf("core: snapshot after run")
	}
	// Any foreground reclaim during populate left side effects beyond the
	// FTL and payload stores (visor counters, erase counts, die-timing
	// frontiers); a fork would silently drop them from the run's Result.
	if st := d.visor.Stats(); st != (flashvisor.Stats{}) || d.visor.Controller().BB.TotalErases() != 0 {
		return nil, fmt.Errorf("%w: populate triggered device-side reclaims", ErrUnforkable)
	}
	return &Image{
		key:       d.Cfg.BuildKey(),
		ftl:       d.visor.FTL.Snapshot(),
		flashBase: d.visor.Controller().BB.SnapshotStore(),
		hostBase:  d.hostm.SnapshotStore(),
		apps:      append([]offloadedApp(nil), d.offloaded...),
	}, nil
}

// Apps returns the number of offloaded applications captured in the image.
func (img *Image) Apps() int { return len(img.apps) }

// Fork builds a fresh, runnable device from the image under cfg. The
// configuration may differ from the image's in any run-time knob (system
// governor within the same storage class, worker count, cost model, series
// collection, ...) but must agree on the BuildKey — the fields that shaped
// the captured state. The forked device is byte-for-byte indistinguishable
// from one freshly built, populated, and offloaded the long way.
func (img *Image) Fork(cfg Config) (*Device, error) {
	if k := cfg.BuildKey(); k != img.key {
		return nil, fmt.Errorf("core: fork config build key %+v does not match image %+v", k, img.key)
	}
	d, err := build(cfg, img)
	if err != nil {
		return nil, err
	}
	for _, rec := range img.apps {
		if err := d.offloadDecoded(rec); err != nil {
			return nil, err
		}
	}
	return d, nil
}
