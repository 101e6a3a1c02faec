// Package units provides the size, time, and bandwidth quantities shared by
// every hardware model in the simulator.
//
// Simulated time is integer nanoseconds (Time). One LWP cycle at 1 GHz is
// exactly 1 ns, which keeps cycle arithmetic exact. Bandwidth is expressed in
// bytes per second and converted to durations with round-up semantics so a
// transfer never takes zero time.
package units

import "fmt"

// Time is a simulated timestamp in nanoseconds since the start of a run.
type Time int64

// Duration is a span of simulated time in nanoseconds.
type Duration = Time

// Common durations.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Common sizes in bytes.
const (
	KB int64 = 1 << 10
	MB int64 = 1 << 20
	GB int64 = 1 << 30
)

// Bandwidth is a transfer rate in bytes per second.
type Bandwidth int64

// Common bandwidths.
const (
	MBps Bandwidth = Bandwidth(MB)
	GBps Bandwidth = Bandwidth(GB)
)

// DurationFor returns the time needed to move n bytes at bandwidth b,
// rounded up to the next nanosecond. It panics if b is not positive, because
// a zero-bandwidth link is always a configuration error.
func (b Bandwidth) DurationFor(n int64) Duration {
	if b <= 0 {
		panic(fmt.Sprintf("units: non-positive bandwidth %d", b))
	}
	if n <= 0 {
		return 0
	}
	// d = ceil(n * 1e9 / b) without overflowing for n up to ~9 EB/s·ns.
	whole := n / int64(b)
	rem := n % int64(b)
	d := Duration(whole) * Second
	if rem > 0 {
		d += Duration((rem*int64(Second) + int64(b) - 1) / int64(b))
	}
	return d
}

// Seconds converts a simulated duration to floating-point seconds.
func Seconds(d Duration) float64 { return float64(d) / float64(Second) }

// FromSeconds converts floating-point seconds to a simulated duration.
func FromSeconds(s float64) Duration { return Duration(s * float64(Second)) }

// Cycles converts a cycle count at the given frequency (Hz) to a duration.
func Cycles(n int64, hz int64) Duration {
	if hz <= 0 {
		panic("units: non-positive frequency")
	}
	return Duration((n*int64(Second) + hz - 1) / hz)
}

// FormatBytes renders a byte count with a binary-prefix unit, e.g. "640.0MB".
func FormatBytes(n int64) string {
	switch {
	case n >= GB:
		return fmt.Sprintf("%.1fGB", float64(n)/float64(GB))
	case n >= MB:
		return fmt.Sprintf("%.1fMB", float64(n)/float64(MB))
	case n >= KB:
		return fmt.Sprintf("%.1fKB", float64(n)/float64(KB))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// FormatDuration renders a duration with an adaptive unit, e.g. "81.0us".
func FormatDuration(d Duration) string {
	switch {
	case d >= Second:
		return fmt.Sprintf("%.3fs", Seconds(d))
	case d >= Millisecond:
		return fmt.Sprintf("%.2fms", float64(d)/float64(Millisecond))
	case d >= Microsecond:
		return fmt.Sprintf("%.1fus", float64(d)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(d))
	}
}

// CeilDiv returns ceil(a/b) for positive b.
func CeilDiv(a, b int64) int64 {
	if b <= 0 {
		panic("units: non-positive divisor")
	}
	if a <= 0 {
		return 0
	}
	return (a + b - 1) / b
}

// MaxTime returns the later of two timestamps.
func MaxTime(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}

// MinTime returns the earlier of two timestamps.
func MinTime(a, b Time) Time {
	if a < b {
		return a
	}
	return b
}
