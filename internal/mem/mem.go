// Package mem models the accelerator's two on-board memory systems (paper
// §2.2): a 1 GB DDR3L used for kernel data sections and flash write
// buffering, and a 4 MB eight-bank SRAM scratchpad that holds the Flashvisor
// mapping table and message-queue entries at L2-cache speed.
package mem

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/units"
)

// Config describes one memory device.
type Config struct {
	Name    string
	Size    int64
	Banks   int
	BW      units.Bandwidth
	Latency units.Duration // fixed access latency
}

// DDR3LConfig returns the prototype's DDR3L: 1 GB, 8 banks, 6.4 GB/s.
func DDR3LConfig() Config {
	return Config{
		Name:    "ddr3l",
		Size:    1 * units.GB,
		Banks:   8,
		BW:      6400 * units.MBps,
		Latency: 50, // ~50 ns row access
	}
}

// ScratchpadConfig returns the prototype's scratchpad: 4 MB, 8 banks,
// 16 GB/s at 500 MHz ("as fast as an L2 cache").
func ScratchpadConfig() Config {
	return Config{
		Name:    "scratchpad",
		Size:    4 * units.MB,
		Banks:   8,
		BW:      16 * units.GBps,
		Latency: 4, // two 500 MHz cycles
	}
}

// Memory is a bandwidth-limited memory device with a simple linear
// allocator for model-level region bookkeeping.
type Memory struct {
	Cfg  Config
	pipe *sim.Pipe

	allocTop int64
	regions  map[string]Region
}

// Region is a named allocation inside a Memory.
type Region struct {
	Name string
	Off  int64
	Size int64
}

// New builds a memory device from cfg.
func New(cfg Config) (*Memory, error) {
	if cfg.Size <= 0 || cfg.BW <= 0 {
		return nil, fmt.Errorf("mem: invalid config %+v", cfg)
	}
	p := sim.NewPipe(cfg.Name, cfg.BW)
	p.Latency = cfg.Latency
	return &Memory{Cfg: cfg, pipe: p, regions: make(map[string]Region)}, nil
}

// Access books a transfer of n bytes requested at time at and returns when
// it completes.
func (m *Memory) Access(at sim.Time, n int64) sim.Time {
	_, end := m.pipe.Transfer(at, n)
	return end
}

// Pipe returns the device's transfer pipe, for a caller that books it as a
// stage of a sim.Chain (the flash controllers land reads in DDR3L this way).
func (m *Memory) Pipe() *sim.Pipe { return m.pipe }

// AccessUniform books cnt transfers of n bytes each, the i'th requested at
// at+i*stride, in one frontier update (see Pipe.TransferUniform). It returns
// when the last completes.
func (m *Memory) AccessUniform(at sim.Time, stride sim.Duration, cnt int, n int64) sim.Time {
	return m.pipe.TransferUniform(at, stride, cnt, n)
}

// Alloc carves a named region from the top of the device. It fails when the
// device is full — the condition that forces low-power accelerators to split
// work into multiple kernels (paper §3).
func (m *Memory) Alloc(name string, size int64) (Region, error) {
	if size <= 0 {
		return Region{}, fmt.Errorf("mem: non-positive allocation %d for %q", size, name)
	}
	if _, ok := m.regions[name]; ok {
		return Region{}, fmt.Errorf("mem: region %q already allocated", name)
	}
	if m.allocTop+size > m.Cfg.Size {
		return Region{}, fmt.Errorf("mem: %q needs %s but only %s of %s free",
			name, units.FormatBytes(size), units.FormatBytes(m.Cfg.Size-m.allocTop), m.Cfg.Name)
	}
	r := Region{Name: name, Off: m.allocTop, Size: size}
	m.allocTop += size
	m.regions[name] = r
	return r, nil
}

// Free releases a named region. The simple allocator only reclaims space
// when the freed region is the most recent allocation; interior frees just
// drop the name. That is sufficient for the device's setup/teardown pattern.
func (m *Memory) Free(name string) {
	r, ok := m.regions[name]
	if !ok {
		return
	}
	delete(m.regions, name)
	if r.Off+r.Size == m.allocTop {
		m.allocTop = r.Off
	}
}

// Used returns the allocated byte count.
func (m *Memory) Used() int64 { return m.allocTop }

// Busy returns the total time the device moved data.
func (m *Memory) Busy() units.Duration { return m.pipe.Busy() }

// Bytes returns the total bytes moved.
func (m *Memory) Bytes() int64 { return m.pipe.Bytes() }
