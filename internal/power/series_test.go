package power

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/sim"
	"repro/internal/units"
)

// denseSeries is the reference binning Series.Sample must reproduce bit for
// bit: the dense per-bin loop that writes every bin a span covers, growing
// the slice one bin at a time.
type denseSeries struct {
	bin  units.Duration
	bins []float64
}

func (s *denseSeries) addSpan(start, end sim.Time, watts float64) {
	if end <= start || watts == 0 {
		return
	}
	first := int(start / s.bin)
	last := int((end - 1) / s.bin)
	for b := first; b <= last; b++ {
		for b >= len(s.bins) {
			s.bins = append(s.bins, 0)
		}
		bs := sim.Time(b) * s.bin
		be := bs + s.bin
		ovs, ove := start, end
		if bs > ovs {
			ovs = bs
		}
		if be < ove {
			ove = be
		}
		s.bins[b] += watts * float64(ove-ovs) / float64(s.bin)
	}
}

type testSpan struct {
	start, end sim.Time
	watts      float64
}

// randomSpans draws a span list mixing every shape the binning must treat
// alike: partial bins, bin-aligned edges, zero-length and reversed spans,
// zero-watt spans, overlaps, out-of-order starts, and spans ending past
// every earlier one.
func randomSpans(rng *rand.Rand, bin units.Duration, n int) []testSpan {
	var out []testSpan
	var maxEnd sim.Time
	watts := func() float64 {
		switch rng.Intn(6) {
		case 0:
			return 0
		case 1:
			return float64(rng.Intn(100)) // integral watts
		case 2:
			return -rng.Float64() * 10 // negative shares still sum
		default:
			return rng.ExpFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
		}
	}
	for i := 0; i < n; i++ {
		var sp testSpan
		switch rng.Intn(6) {
		case 0: // partial bins anywhere
			sp.start = sim.Time(rng.Int63n(int64(40 * bin)))
			sp.end = sp.start + sim.Time(rng.Int63n(int64(6*bin)))
		case 1: // bin-aligned edges
			sp.start = sim.Time(rng.Intn(40)) * bin
			sp.end = sp.start + sim.Time(rng.Intn(8)+1)*bin
		case 2: // zero-length
			sp.start = sim.Time(rng.Int63n(int64(40 * bin)))
			sp.end = sp.start
		case 3: // reversed
			sp.end = sim.Time(rng.Int63n(int64(40 * bin)))
			sp.start = sp.end + sim.Time(rng.Int63n(int64(bin))+1)
		case 4: // ends past every earlier span
			sp.start = sim.Time(rng.Int63n(int64(maxEnd) + 1))
			sp.end = maxEnd + sim.Time(rng.Int63n(int64(20*bin))+1)
		default: // short span inside one bin, often overlapping others
			sp.start = sim.Time(rng.Int63n(int64(40 * bin)))
			sp.end = sp.start + sim.Time(rng.Int63n(int64(bin))+1)
		}
		sp.watts = watts()
		if sp.end > maxEnd {
			maxEnd = sp.end
		}
		out = append(out, sp)
	}
	return out
}

// checkAgainstDense adds spans to a Series and to the dense reference and
// compares Len and every sampled bin's bits for strides 1 to 50.
func checkAgainstDense(t *testing.T, bin units.Duration, spans []testSpan) {
	t.Helper()
	s := NewSeries(bin)
	ref := &denseSeries{bin: bin}
	for _, sp := range spans {
		s.AddSpan(sp.start, sp.end, sp.watts)
		ref.addSpan(sp.start, sp.end, sp.watts)
	}
	if s.Len() != len(ref.bins) {
		t.Fatalf("bin %d: Len = %d, dense reference has %d bins", bin, s.Len(), len(ref.bins))
	}
	for stride := 1; stride <= 50; stride++ {
		got := s.Sample(stride)
		if want := (len(ref.bins) + stride - 1) / stride; len(got) != want {
			t.Fatalf("bin %d stride %d: %d samples, want %d", bin, stride, len(got), want)
		}
		for k, v := range got {
			if w := ref.bins[k*stride]; math.Float64bits(v) != math.Float64bits(w) {
				t.Fatalf("bin %d stride %d: bin %d = %v (%#x), dense reference %v (%#x)",
					bin, stride, k*stride, v, math.Float64bits(v), w, math.Float64bits(w))
			}
		}
	}
}

func TestSeriesSampleMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		bin := units.Duration(rng.Intn(200) + 1)
		checkAgainstDense(t, bin, randomSpans(rng, bin, rng.Intn(40)))
	}
}

func TestSeriesSampleBadStridePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSeries(10).Sample(0)
}

// FuzzSeriesSample runs the dense-reference comparison over fuzzer-chosen
// seeds, bin widths and span counts.
func FuzzSeriesSample(f *testing.F) {
	f.Add(int64(1), uint16(100), uint8(12))
	f.Add(int64(7), uint16(1), uint8(40))
	f.Add(int64(-3), uint16(77), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, bin uint16, n uint8) {
		b := units.Duration(bin)
		if b == 0 {
			b = 1
		}
		checkAgainstDense(t, b, randomSpans(rand.New(rand.NewSource(seed)), b, int(n)%64))
	})
}
