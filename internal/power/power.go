// Package power accounts for energy. Every hardware model reports busy time;
// this package converts busy/idle spans into joules per component and rolls
// them up into the paper's three categories: data movement, computation, and
// storage access (Fig. 13 and Fig. 16b).
package power

import (
	"fmt"
	"sort"

	"repro/internal/sim"
	"repro/internal/units"
)

// Category is one of the paper's energy decomposition buckets.
type Category int

// The decomposition used throughout §5.3.
const (
	DataMove Category = iota
	Compute
	Storage
	numCategories
)

func (c Category) String() string {
	switch c {
	case DataMove:
		return "data movement"
	case Compute:
		return "computation"
	case Storage:
		return "storage access"
	default:
		return fmt.Sprintf("category(%d)", int(c))
	}
}

// Rates holds the platform's power constants. Device-side numbers come from
// Table 1; host-side numbers model the Xeon E5-2620v3 + DDR4 testbed used by
// the SIMD baseline.
type Rates struct {
	LWPActive float64 // W per busy LWP core
	LWPIdle   float64 // W per awake-but-idle core
	LWPSleep  float64 // W per sleeping core
	DDR3L     float64 // W while the on-board DRAM moves data
	Scratch   float64 // W while the scratchpad moves data
	Backbone  float64 // W while the flash complex is active
	PCIe      float64 // W while the link carries data

	HostCPUActive float64 // W of host CPU during storage-stack work
	HostCPUIdle   float64 // W of host CPU otherwise (charged per run span)
	HostDRAM      float64 // W of host DRAM during copies
	SSD           float64 // W of the external NVMe SSD while active
}

// DefaultRates returns the published/typical constants.
func DefaultRates() Rates {
	return Rates{
		LWPActive: 0.8,
		LWPIdle:   0.15,
		LWPSleep:  0.02,
		DDR3L:     0.7,
		Scratch:   0.1,
		Backbone:  11.0,
		PCIe:      0.17,

		HostCPUActive: 55.0,
		HostCPUIdle:   12.0,
		HostDRAM:      4.5,
		SSD:           11.0,
	}
}

// Entry is one accounted energy contribution.
type Entry struct {
	Component string
	Cat       Category
	Joules    float64
}

// Meter accumulates energy entries for one run.
type Meter struct {
	entries []Entry
}

// AddBusy charges watts over a busy duration to a category.
func (m *Meter) AddBusy(component string, cat Category, busy units.Duration, watts float64) {
	if busy <= 0 || watts <= 0 {
		return
	}
	m.entries = append(m.entries, Entry{component, cat, watts * units.Seconds(busy)})
}

// AddJoules charges a precomputed energy amount.
func (m *Meter) AddJoules(component string, cat Category, j float64) {
	if j <= 0 {
		return
	}
	m.entries = append(m.entries, Entry{component, cat, j})
}

// Breakdown is total joules per category.
type Breakdown [numCategories]float64

// Total returns the summed energy.
func (b Breakdown) Total() float64 { return b[DataMove] + b[Compute] + b[Storage] }

// Frac returns the category's fraction of the total (0 when empty).
func (b Breakdown) Frac(c Category) float64 {
	t := b.Total()
	if t == 0 {
		return 0
	}
	return b[c] / t
}

// Breakdown rolls the meter up by category.
func (m *Meter) Breakdown() Breakdown {
	var b Breakdown
	for _, e := range m.entries {
		b[e.Cat] += e.Joules
	}
	return b
}

// ByComponent rolls the meter up by component name, sorted by name.
func (m *Meter) ByComponent() []Entry {
	agg := make(map[string]*Entry)
	for _, e := range m.entries {
		if a, ok := agg[e.Component]; ok {
			a.Joules += e.Joules
		} else {
			cp := e
			agg[e.Component] = &cp
		}
	}
	out := make([]Entry, 0, len(agg))
	for _, e := range agg {
		out = append(out, *e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Component < out[j].Component })
	return out
}

// Series is a binned power time-series built from busy-interval logs: each
// interval contributes watts to the bins it overlaps, proportionally. It
// feeds the Fig. 15 traces. Spans are recorded as added and binned only on
// Sample, so a long run costs one record per span rather than one float per
// bin.
type Series struct {
	Bin   units.Duration
	spans []span
	n     int // bins covered: one past the last bin any span touches
}

type span struct {
	start, end sim.Time
	watts      float64
}

// NewSeries creates a series with the given bin width.
func NewSeries(bin units.Duration) *Series {
	if bin <= 0 {
		panic("power: non-positive bin width")
	}
	return &Series{Bin: bin}
}

// AddSpan spreads watts over [start, end).
func (s *Series) AddSpan(start, end sim.Time, watts float64) {
	if end <= start || watts == 0 {
		return
	}
	s.spans = append(s.spans, span{start, end, watts})
	if last := int((end - 1) / s.Bin); last >= s.n {
		s.n = last + 1
	}
}

// Len returns the number of bins the series covers.
func (s *Series) Len() int { return s.n }

// Sample returns the average power in watts of bins 0, stride, 2*stride, …
// below Len. Each bin sums its spans' shares in the order they were added,
// so Sample(1) is the full binned series.
func (s *Series) Sample(stride int) []float64 {
	if stride < 1 {
		panic("power: non-positive sample stride")
	}
	out := make([]float64, (s.n+stride-1)/stride)
	for _, sp := range s.spans {
		first := int(sp.start / s.Bin)
		last := int((sp.end - 1) / s.Bin)
		for b := (first + stride - 1) / stride * stride; b <= last; b += stride {
			bs := sim.Time(b) * s.Bin
			be := bs + s.Bin
			ovs, ove := sp.start, sp.end
			if bs > ovs {
				ovs = bs
			}
			if be < ove {
				ove = be
			}
			out[b/stride] += sp.watts * float64(ove-ovs) / float64(s.Bin)
		}
	}
	return out
}
