package power

import (
	"math"
	"testing"

	"repro/internal/sim"
	"repro/internal/units"
)

func TestMeterBreakdown(t *testing.T) {
	var m Meter
	m.AddBusy("lwp0", Compute, units.Second, 0.8)
	m.AddBusy("pcie", DataMove, 2*units.Second, 0.17)
	m.AddBusy("flash", Storage, units.Second/2, 11)
	b := m.Breakdown()
	if math.Abs(b[Compute]-0.8) > 1e-9 {
		t.Errorf("compute = %v", b[Compute])
	}
	if math.Abs(b[DataMove]-0.34) > 1e-9 {
		t.Errorf("data movement = %v", b[DataMove])
	}
	if math.Abs(b[Storage]-5.5) > 1e-9 {
		t.Errorf("storage = %v", b[Storage])
	}
	if math.Abs(b.Total()-6.64) > 1e-9 {
		t.Errorf("total = %v", b.Total())
	}
	if math.Abs(b.Frac(Storage)-5.5/6.64) > 1e-9 {
		t.Errorf("storage frac = %v", b.Frac(Storage))
	}
}

func TestMeterIgnoresNonPositive(t *testing.T) {
	var m Meter
	m.AddBusy("x", Compute, 0, 5)
	m.AddBusy("x", Compute, units.Second, 0)
	m.AddJoules("x", Compute, -1)
	if m.Breakdown().Total() != 0 {
		t.Error("non-positive contributions accounted")
	}
}

func TestEmptyBreakdownFrac(t *testing.T) {
	var b Breakdown
	if b.Frac(Compute) != 0 {
		t.Error("empty breakdown fraction should be 0")
	}
}

func TestByComponentAggregates(t *testing.T) {
	var m Meter
	m.AddBusy("lwp0", Compute, units.Second, 1)
	m.AddBusy("lwp0", Compute, units.Second, 1)
	m.AddBusy("alpha", Storage, units.Second, 2)
	got := m.ByComponent()
	if len(got) != 2 {
		t.Fatalf("components = %d, want 2", len(got))
	}
	if got[0].Component != "alpha" || got[1].Component != "lwp0" {
		t.Errorf("not sorted: %v", got)
	}
	if math.Abs(got[1].Joules-2.0) > 1e-9 {
		t.Errorf("lwp0 joules = %v, want 2", got[1].Joules)
	}
}

func TestCategoryString(t *testing.T) {
	if DataMove.String() != "data movement" || Compute.String() != "computation" || Storage.String() != "storage access" {
		t.Error("category strings wrong")
	}
	if Category(99).String() == "" {
		t.Error("unknown category should still render")
	}
}

func TestSeriesSingleSpan(t *testing.T) {
	s := NewSeries(100)
	s.AddSpan(0, 100, 10)
	bins := s.Sample(1)
	if s.Len() != 1 || len(bins) != 1 || math.Abs(bins[0]-10) > 1e-9 {
		t.Errorf("bins = %v, want [10]", bins)
	}
}

func TestSeriesProportionalSplit(t *testing.T) {
	s := NewSeries(100)
	s.AddSpan(50, 150, 10) // half in bin 0, half in bin 1
	bins := s.Sample(1)
	if s.Len() != 2 || len(bins) != 2 || math.Abs(bins[0]-5) > 1e-9 || math.Abs(bins[1]-5) > 1e-9 {
		t.Errorf("bins = %v, want [5 5]", bins)
	}
}

func TestSeriesEnergyConserved(t *testing.T) {
	s := NewSeries(77)
	spans := []struct{ a, b sim.Time }{{3, 500}, {100, 101}, {490, 1000}}
	var want float64
	for _, sp := range spans {
		s.AddSpan(sp.a, sp.b, 2.5)
		want += 2.5 * float64(sp.b-sp.a)
	}
	var got float64
	for _, w := range s.Sample(1) {
		got += w * 77
	}
	if math.Abs(got-want) > 1e-6 {
		t.Errorf("series energy %v, want %v", got, want)
	}
}

func TestSeriesAdjacentSpans(t *testing.T) {
	s := NewSeries(10)
	s.AddSpan(0, 10, 3)
	s.AddSpan(10, 20, 3)
	bins := s.Sample(1)
	if s.Len() != 2 || len(bins) != 2 || bins[0] != 3 || bins[1] != 3 {
		t.Errorf("bins = %v", bins)
	}
}

func TestSeriesBadBinPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSeries(0)
}

func TestDefaultRatesSane(t *testing.T) {
	r := DefaultRates()
	if r.LWPActive != 0.8 {
		t.Errorf("LWP active = %v, want 0.8 (Table 1)", r.LWPActive)
	}
	if r.Backbone != 11.0 || r.SSD != 11.0 {
		t.Error("storage power should match Table 1's 11W")
	}
	if r.PCIe != 0.17 {
		t.Errorf("PCIe = %v, want 0.17", r.PCIe)
	}
	if r.HostCPUActive <= r.HostCPUIdle {
		t.Error("host CPU active must exceed idle")
	}
}
