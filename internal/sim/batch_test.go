package sim

import (
	"math/rand"
	"testing"

	"repro/internal/units"
)

// TestReserveNMatchesLoop pins the batching contract: ReserveN must leave
// the resource in exactly the state n individual Reserves leave it in, for
// any prior frontier. Byte-identical simulation output depends on this.
func TestReserveNMatchesLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		at := Time(rng.Intn(1000))
		d := Duration(1 + rng.Intn(50))
		n := 1 + rng.Intn(20)
		pre := Duration(rng.Intn(2000))

		a, b := NewResource("a"), NewResource("b")
		a.Reserve(0, pre)
		b.Reserve(0, pre)

		var wantStart, wantEnd Time
		for i := 0; i < n; i++ {
			s, e := a.Reserve(at, d)
			if i == 0 {
				wantStart = s
			}
			wantEnd = e
		}
		gotStart, gotEnd := b.ReserveN(at, d, n)
		if gotStart != wantStart || gotEnd != wantEnd {
			t.Fatalf("trial %d: ReserveN = [%d,%d), loop = [%d,%d)", trial, gotStart, gotEnd, wantStart, wantEnd)
		}
		if a.FreeAt() != b.FreeAt() || a.Busy() != b.Busy() || a.Reservations() != b.Reservations() {
			t.Fatalf("trial %d: state diverged: free %d/%d busy %d/%d n %d/%d",
				trial, a.FreeAt(), b.FreeAt(), a.Busy(), b.Busy(), a.Reservations(), b.Reservations())
		}
	}
}

// TestTransferUniformMatchesLoop pins the pipe batching contract against
// every regime: stride above, below, and equal to the per-transfer duration,
// with the pipe initially idle, backlogged, and mid-catch-up.
func TestTransferUniformMatchesLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 500; trial++ {
		bw := units.Bandwidth(1 + rng.Intn(int(units.GBps)))
		lat := Duration(rng.Intn(3) * 25)
		nb := int64(rng.Intn(4096)) // includes 0-byte transfers
		stride := Duration(rng.Intn(200))
		n := 1 + rng.Intn(16)
		at := Time(rng.Intn(500))
		pre := int64(rng.Intn(100_000))

		a, b := NewPipe("a", bw), NewPipe("b", bw)
		a.Latency, b.Latency = lat, lat
		a.Transfer(0, pre)
		b.Transfer(0, pre)

		var wantEnd Time
		for i := 0; i < n; i++ {
			_, wantEnd = a.Transfer(at+Duration(i)*stride, nb)
		}
		gotEnd := b.TransferUniform(at, stride, n, nb)
		if gotEnd != wantEnd {
			t.Fatalf("trial %d (bw=%d lat=%d nb=%d stride=%d n=%d): end %d, want %d",
				trial, bw, lat, nb, stride, n, gotEnd, wantEnd)
		}
		if a.FreeAt() != b.FreeAt() || a.Busy() != b.Busy() || a.Bytes() != b.Bytes() {
			t.Fatalf("trial %d: state diverged: free %d/%d busy %d/%d bytes %d/%d",
				trial, a.FreeAt(), b.FreeAt(), a.Busy(), b.Busy(), a.Bytes(), b.Bytes())
		}
	}
}

// TestPipeDurationFollowsSize alternates transfer sizes on one pipe, through
// both Transfer and TransferUniform, and checks every booking against a
// fresh DurationFor: the pipe's cached duration must never outlive its size.
func TestPipeDurationFollowsSize(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	bw := 800 * units.MBps
	p := NewPipe("p", bw)
	sizes := []int64{16 * units.KB, 64 * units.KB, 1, 16*units.KB + 1}
	var at Time
	for i := 0; i < 200; i++ {
		nb := sizes[rng.Intn(len(sizes))]
		d := bw.DurationFor(nb)
		busy := p.Busy()
		if rng.Intn(2) == 0 {
			start, end := p.Transfer(at, nb)
			if end-start != d {
				t.Fatalf("step %d: %d-byte transfer took %d, want %d", i, nb, end-start, d)
			}
			at = end
		} else {
			n := 1 + rng.Intn(4)
			at = p.TransferUniform(at, 0, n, nb)
			d *= Duration(n)
		}
		if got := p.Busy() - busy; got != d {
			t.Fatalf("step %d: %d-byte booking added %d busy, want %d", i, nb, got, d)
		}
	}
}
