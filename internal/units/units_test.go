package units

import (
	"testing"
	"testing/quick"
)

func TestDurationFor(t *testing.T) {
	tests := []struct {
		name  string
		bw    Bandwidth
		bytes int64
		want  Duration
	}{
		{"1GBps moves 1GB in 1s", GBps, GB, Second},
		{"1GBps moves 1 byte in 1ns", GBps, 1, 1},
		{"zero bytes take zero time", GBps, 0, 0},
		{"negative bytes take zero time", GBps, -5, 0},
		{"800MBps moves 8KB in ~10us", 800 * MBps, 8 * KB, 9766}, // ceil(8192e9/838860800)
		{"rounds up", 3, 1, Second/3 + 1},                        // 1 byte at 3 B/s = 333333333.33ns -> 333333334
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.bw.DurationFor(tt.bytes); got != tt.want {
				t.Errorf("DurationFor(%d) = %d, want %d", tt.bytes, got, tt.want)
			}
		})
	}
}

func TestDurationForPanicsOnZeroBandwidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero bandwidth")
		}
	}()
	Bandwidth(0).DurationFor(1)
}

func TestDurationForNeverZeroForPositiveBytes(t *testing.T) {
	f := func(bw uint32, n uint16) bool {
		b := Bandwidth(bw%uint32(100*GBps/1000)*1000 + 1)
		bytes := int64(n) + 1
		return b.DurationFor(bytes) > 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDurationForIsMonotonic(t *testing.T) {
	f := func(a, b uint16) bool {
		x, y := int64(a), int64(b)
		if x > y {
			x, y = y, x
		}
		bw := 800 * MBps
		return bw.DurationFor(x) <= bw.DurationFor(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCycles(t *testing.T) {
	if got := Cycles(1000, 1e9); got != 1000 {
		t.Errorf("1000 cycles at 1GHz = %d ns, want 1000", got)
	}
	if got := Cycles(500, 500e6); got != 1000 {
		t.Errorf("500 cycles at 500MHz = %d ns, want 1000", got)
	}
	if got := Cycles(1, 3e9); got != 1 {
		t.Errorf("1 cycle at 3GHz = %d ns, want 1 (round up)", got)
	}
}

func TestSecondsConversion(t *testing.T) {
	if s := Seconds(2500 * Millisecond); s != 2.5 {
		t.Errorf("Seconds = %v, want 2.5", s)
	}
	if d := FromSeconds(0.000081); d != 81*Microsecond {
		t.Errorf("FromSeconds = %v, want 81us", d)
	}
}

func TestFormatBytes(t *testing.T) {
	tests := []struct {
		n    int64
		want string
	}{
		{512, "512B"},
		{8 * KB, "8.0KB"},
		{640 * MB, "640.0MB"},
		{32 * GB, "32.0GB"},
	}
	for _, tt := range tests {
		if got := FormatBytes(tt.n); got != tt.want {
			t.Errorf("FormatBytes(%d) = %q, want %q", tt.n, got, tt.want)
		}
	}
}

func TestFormatDuration(t *testing.T) {
	tests := []struct {
		d    Duration
		want string
	}{
		{500, "500ns"},
		{81 * Microsecond, "81.0us"},
		{2600 * Microsecond, "2.60ms"},
		{1500 * Millisecond, "1.500s"},
	}
	for _, tt := range tests {
		if got := FormatDuration(tt.d); got != tt.want {
			t.Errorf("FormatDuration(%d) = %q, want %q", tt.d, got, tt.want)
		}
	}
}

func TestCeilDiv(t *testing.T) {
	tests := []struct{ a, b, want int64 }{
		{0, 4, 0},
		{1, 4, 1},
		{4, 4, 1},
		{5, 4, 2},
		{-3, 4, 0},
	}
	for _, tt := range tests {
		if got := CeilDiv(tt.a, tt.b); got != tt.want {
			t.Errorf("CeilDiv(%d,%d) = %d, want %d", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestMinMaxTime(t *testing.T) {
	if MaxTime(3, 5) != 5 || MaxTime(5, 3) != 5 {
		t.Error("MaxTime wrong")
	}
	if MinTime(3, 5) != 3 || MinTime(5, 3) != 3 {
		t.Error("MinTime wrong")
	}
}
