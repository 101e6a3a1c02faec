package sim

import "repro/internal/units"

// Resource is a serially-reusable unit of hardware (an LWP, a flash die, the
// Flashvisor core). Work is reserved analytically: Reserve returns the
// interval the work will occupy given everything reserved before it, FIFO.
//
// Reservations must be issued with non-decreasing request times, which the
// event loop guarantees naturally; earlier-time requests after later ones
// would be a causality bug and are clamped to the current frontier.
type Resource struct {
	Name string

	free    Time // next instant the resource is idle
	busy    Duration
	reserve uint64 // number of reservations
}

// NewResource returns a named resource that is free at time zero.
func NewResource(name string) *Resource { return &Resource{Name: name} }

// Reserve books d units of work requested at time at. It returns the start
// and end of the busy interval. A non-positive duration returns an empty
// interval at the request time without booking anything.
func (r *Resource) Reserve(at Time, d Duration) (start, end Time) {
	if d <= 0 {
		return units.MaxTime(at, r.free), units.MaxTime(at, r.free)
	}
	start = units.MaxTime(at, r.free)
	end = start + d
	r.free = end
	r.busy += d
	r.reserve++
	return start, end
}

// ReserveN books n back-to-back reservations of d each, all requested at
// time at, and returns the start of the first and the end of the last. It is
// exactly equivalent to calling Reserve(at, d) n times — after the first
// reservation the frontier is at or past `at`, so the rest are contiguous —
// but performs one frontier update. The i'th reservation (0-based) occupies
// [start+i*d, start+(i+1)*d).
func (r *Resource) ReserveN(at Time, d Duration, n int) (start, end Time) {
	if n <= 0 || d <= 0 {
		s := units.MaxTime(at, r.free)
		return s, s
	}
	start = units.MaxTime(at, r.free)
	end = start + Duration(n)*d
	r.free = end
	r.busy += Duration(n) * d
	r.reserve += uint64(n)
	return start, end
}

// reserveUniform books n ≥ 1 reservations of d > 0 each, the i'th requested
// at first+i*stride, and returns the end of the last. The FIFO frontier
// recurrence f_i = max(f_{i-1}, t_i) + d has a closed form when the request
// times are uniformly spaced: with stride >= d every reservation starts at
// its own request time once the resource catches up; with stride < d it
// saturates and drains back-to-back from the first request.
func (r *Resource) reserveUniform(first Time, stride Duration, n int, d Duration) Time {
	nd := Duration(n) * d
	tail := first + nd
	if stride >= d {
		tail = first + Duration(n-1)*stride + d
	}
	end := units.MaxTime(r.free+nd, tail)
	r.free = end
	r.busy += nd
	r.reserve += uint64(n)
	return end
}

// FreeAt returns the next instant the resource is idle.
func (r *Resource) FreeAt() Time { return r.free }

// Busy returns the total booked time.
func (r *Resource) Busy() Duration { return r.busy }

// Reservations returns how many reservations were made.
func (r *Resource) Reservations() uint64 { return r.reserve }

// Pipe is a bandwidth-limited, FIFO transfer channel (a crossbar port, a
// flash channel bus, the PCIe link). Transfers serialize: each transfer of n
// bytes occupies the pipe for n/bandwidth.
type Pipe struct {
	Name string
	// Latency is a fixed per-transfer latency added before the data moves
	// (for example a bus turnaround or packet header time). It does not
	// occupy pipe bandwidth.
	Latency Duration

	bw    units.Bandwidth
	res   Resource
	bytes int64
	// lastN and lastD memoize the most recent transfer size and its
	// duration: the hot pipes move the same byte count on almost every
	// call, and bw never changes after NewPipe.
	lastN int64
	lastD Duration
}

// NewPipe returns a pipe with the given bandwidth and zero fixed latency.
func NewPipe(name string, bw units.Bandwidth) *Pipe {
	return &Pipe{Name: name, bw: bw, res: Resource{Name: name}}
}

// durationFor returns bw.DurationFor(n) for n > 0, recomputing it only when
// n differs from the previous call's size.
func (p *Pipe) durationFor(n int64) Duration {
	if n != p.lastN {
		p.lastN, p.lastD = n, p.bw.DurationFor(n)
	}
	return p.lastD
}

// Transfer books n bytes requested at time at and returns the interval the
// data occupies the pipe. Zero-byte transfers return an empty interval.
func (p *Pipe) Transfer(at Time, n int64) (start, end Time) {
	if n <= 0 {
		return at, at
	}
	start, end = p.res.Reserve(at+p.Latency, p.durationFor(n))
	p.bytes += n
	return start, end
}

// TransferUniform books n transfers of nb bytes each, the i'th requested at
// at+i*stride, and returns the completion time of the last. It is exactly
// equivalent to n Transfer calls at those request times — the FIFO frontier
// recurrence f_i = max(f_{i-1}, t_i) + d has a closed form when the request
// times are uniformly spaced — but performs one frontier update. Callers use
// it to charge a span of identical per-group costs in one reservation.
func (p *Pipe) TransferUniform(at Time, stride Duration, n int, nb int64) (end Time) {
	if n <= 0 {
		return at
	}
	if nb <= 0 {
		return at + Duration(n-1)*stride
	}
	p.bytes += int64(n) * nb
	return p.res.reserveUniform(at+p.Latency, stride, n, p.durationFor(nb))
}

// Busy returns the total time the pipe carried data.
func (p *Pipe) Busy() Duration { return p.res.Busy() }

// Bytes returns the total bytes transferred.
func (p *Pipe) Bytes() int64 { return p.bytes }

// FreeAt returns the next instant the pipe is idle.
func (p *Pipe) FreeAt() Time { return p.res.FreeAt() }

// Reservations returns how many transfers the pipe carried.
func (p *Pipe) Reservations() uint64 { return p.res.Reservations() }
