package sim

import "fmt"

// Stage is one step of a Chain: either a Pipe moving Bytes per request, or a
// round-robin Ring of Resources on which each request holds one server for D.
type Stage struct {
	Pipe  *Pipe
	Bytes int64

	Ring []*Resource
	D    Duration
}

// Chain books runs of evenly spaced requests through a fixed sequence of
// stages, such as the pipeline a sequential flash read crosses from the
// controller's tag queue to its landing in DRAM. Request i of a run reaches
// stage 0 at at+i*stride and each later stage when it leaves the one before.
// A ring stage hands consecutive requests to consecutive servers. Book leaves
// every resource exactly as a per-request loop of Reserve and Transfer calls
// would, and reports every request's exact completion. A long run costs
// O(transient + servers) instead of O(requests × stages).
//
// # Why the closed form is exact
//
// Let P be the lcm of the ring sizes (a pipe is a ring of one), c_s(i) the
// completion of request i at stage s, and δ_s(i) = c_s(i) − c_s(i−P).
// Requests i and i−P use the same server of every ring. With constant
// durations the FIFO recurrence c_s(i) = max(in_s(i), c_s(i−m_s)) + D_s then
// gives
//
//	δ_s(i) ≤ max(δ_{s−1}(i), δ_s(i−m_s)),   where δ_{−1}(i) = P·stride.
//
// Book steps the recurrence. Once at least two full periods have passed
// since the last charged request, it checks the stages at each period
// boundary j. A stage qualifies when δ_s took one value Δ_s at every request
// of the last period, and either:
//
//   - its input is exactly periodic (it is stage 0, or the stage above it
//     qualifies) and Δ_s equals the input's increment: the stage tracks its
//     input; or
//   - it was saturated (every request of the last period found its server
//     busy) and Δ_s is at least every per-period increment its input can
//     still reach. That is the input's Δ when the input is exactly periodic.
//     Otherwise it is the bound the inequality gives: the largest of
//     P·stride and each upstream stage's δ over its last m requests.
//
// By induction on i ≥ j, a tracking stage keeps c_s(i) = c_s(i−P) + Δ_s. A
// saturated stage keeps finding its server busy, so c_s(i) = c_s(i−m_s) + D_s
// and δ_s(i) = Δ_s again. When every stage from some L down qualifies, those
// stages stay periodic for the rest of the run, whatever the stages above L
// do. Book then advances them whole periods at a time: each server's free
// time and each recorded completion move by Δ_s per period, and busy time,
// reservations and bytes move by their per-period shares. The stages above
// L depend only on the request times, and Book still books them: per server
// in closed form when L is 1 (uniform requests, as Pipe.TransferUniform),
// per request otherwise. A run too short to reach a check is only stepped.
//
// The stages of one Chain must not share a Resource or a Pipe.
type Chain struct {
	// Charge, when set, is consulted exactly once per request, in request
	// order, at stage ChargeAt. It gets the time the request reaches that
	// stage and returns the extra time (≥ 0) the request holds its server
	// there, such as flash read retries. A nonzero charge breaks the period,
	// so Book never advances in closed form past a charged request: it
	// consults the requests of each period before advancing over it.
	Charge   func(i int, in Time) Duration
	ChargeAt int

	st     []chainStage
	period int
	ends   []Time     // [s*period + i%period]: c_s(i) of the latest request i
	deltas []Duration // [s*period + i%period]: its δ_s(i)
	up     []Time     // completions above the closed-form stages, one period

	advanced   int      // requests advanced in closed form, over the chain's life
	hook       int      // stage consulting Charge, or -1
	since      int      // first request after the last charged one
	known      int      // requests whose charge has been consulted
	knownExtra Duration // the charge of request known-1
}

type chainStage struct {
	srv   []*Resource
	pipe  *Pipe // nil for a ring
	bytes int64
	d     Duration
	lat   Duration
	next  int // ring index serving the stage's next request

	delta      Duration // Δ_s while the stage qualifies
	lastDelta  Duration // δ_s of the latest stepped request
	lastChange int      // latest request whose δ_s differs from its predecessor's
	lastIdle   int      // latest request that found its server idle
}

// NewChain returns a chain over the given stages. A pipe stage must move a
// positive number of bytes and a ring must have at least one server.
func NewChain(stages ...Stage) *Chain {
	c := &Chain{st: make([]chainStage, len(stages)), period: 1}
	for s, in := range stages {
		st := &c.st[s]
		switch {
		case in.Pipe != nil && in.Ring == nil && in.Bytes > 0:
			st.srv, st.pipe, st.bytes = []*Resource{&in.Pipe.res}, in.Pipe, in.Bytes
		case in.Pipe == nil && len(in.Ring) > 0:
			st.srv, st.d = in.Ring, in.D
		default:
			panic(fmt.Sprintf("sim: chain stage %d is neither a ring nor a pipe moving bytes", s))
		}
		c.period = lcm(c.period, len(st.srv))
	}
	c.ends = make([]Time, len(stages)*c.period)
	c.deltas = make([]Duration, len(stages)*c.period)
	c.up = make([]Time, c.period)
	return c
}

func lcm(a, b int) int {
	x, y := a, b
	for y != 0 {
		x, y = y, x%y
	}
	return a / x * b
}

// Book books n requests, the i'th reaching stage 0 at at+i*stride (stride ≥
// 0). Request i uses ring server (pos+i) mod len(Ring) of every ring stage
// (pos ≥ 0). ready, when non-nil, receives every request's completion at
// the last stage, in request order. Book returns the latest completion, or
// at when n is 0.
func (c *Chain) Book(at Time, stride Duration, pos int64, n int, ready func(i int, end Time)) Time {
	if stride < 0 {
		panic(fmt.Sprintf("sim: negative chain stride %d", stride))
	}
	for s := range c.st {
		st := &c.st[s]
		st.next = 0
		if len(st.srv) > 1 {
			st.next = int(pos % int64(len(st.srv)))
		}
		if st.pipe != nil {
			st.d, st.lat = st.pipe.durationFor(st.bytes), st.pipe.Latency
		}
		st.lastChange, st.lastIdle = -1, -1
	}
	c.hook = -1
	if c.Charge != nil {
		c.hook = c.ChargeAt
	}
	c.since, c.known = 0, 0
	P, S := c.period, len(c.st)
	record := n >= 3*P // a check needs two stepped periods and one to advance
	latest := at
	for i := 0; i < n; {
		end := c.step(i, at+Duration(i)*stride, 0, S, record)
		latest = max(latest, end)
		if ready != nil {
			ready(i, end)
		}
		i++
		if record && i-c.since >= 2*P && (i-c.since)%P == 0 && n-i >= P {
			if L := c.qualify(i, stride); L >= 0 {
				var e Time
				i, e = c.advance(at, stride, i, n, L, ready)
				latest = max(latest, e)
			}
		}
	}
	return latest
}

// Advanced returns how many requests Book has advanced in closed form over
// the chain's life.
func (c *Chain) Advanced() int { return c.advanced }

// step books request g on stages [from, to), reaching stage from at in, and
// returns its completion at stage to-1. With record it keeps the history
// qualify reads.
func (c *Chain) step(g int, in Time, from, to int, record bool) Time {
	var p int
	if record {
		p = g % c.period
	}
	for s := from; s < to; s++ {
		st := &c.st[s]
		d := st.d
		if s == c.hook {
			var x Duration
			if g >= c.known {
				x = c.Charge(g, in)
				c.known, c.knownExtra = g+1, x
			} else if g == c.known-1 {
				x = c.knownExtra
			}
			if x != 0 {
				d += x
				c.since = g + 1
			}
		}
		r := st.srv[st.next]
		if st.next++; st.next == len(st.srv) {
			st.next = 0
		}
		start := in + st.lat
		if r.free >= start {
			start = r.free
		} else if record {
			st.lastIdle = g
		}
		end := start
		if d > 0 {
			end += d
			r.free = end
			r.busy += d
			r.reserve++
		}
		if st.pipe != nil {
			st.pipe.bytes += st.bytes
		}
		if record {
			k := s*c.period + p
			delta := end - c.ends[k]
			if delta != st.lastDelta {
				st.lastChange = g
			}
			st.lastDelta = delta
			c.ends[k], c.deltas[k] = end, delta
		}
		in = end
	}
	return in
}

// qualify checks the stages at period boundary j and returns the first
// stage L such that every stage from L down qualifies, or -1.
func (c *Chain) qualify(j int, stride Duration) int {
	P := c.period
	lo, p := j-P, (j-1)%P
	bound, exact := Duration(P)*stride, true
	L := -1
	for s := range c.st {
		st := &c.st[s]
		delta := c.deltas[s*P+p]
		steady := st.lastChange <= lo
		saturated := st.lastIdle < lo
		if steady && (exact && delta == bound || saturated && delta >= bound) {
			if L < 0 {
				L = s
			}
			st.delta = delta
			bound, exact = delta, true
			continue
		}
		L, exact = -1, false
		w := delta
		if !steady {
			for g := j - len(st.srv); g < j; g++ {
				w = max(w, c.deltas[s*P+g%P])
			}
		}
		bound = max(bound, w)
	}
	return L
}

// advance books the requests from j on with stages L and below qualified at
// j. It returns the next request to step and the latest completion so far.
func (c *Chain) advance(at Time, stride Duration, j, n, L int, ready func(int, Time)) (int, Time) {
	P, S := c.period, len(c.st)
	if c.hook < 0 {
		k := (n - j) / P
		switch K := k * P; {
		case L == 1:
			c.uniform(at, stride, j, K)
		case L > 1:
			for g := j; g < j+K; g++ {
				c.step(g, at+Duration(g)*stride, 0, L, false)
			}
		}
		c.emit(j, k, ready)
		c.shift(L, k)
		return j + k*P, c.lastEnd()
	}
	// With a charge hook, consult every request of the next period first:
	// book the stages above L per request and read the hook stage's input
	// from them or from the closed form.
	for n-j >= P {
		charged := -1
		for r := 0; r < P && charged < 0; r++ {
			g := j + r
			x := at + Duration(g)*stride
			if L > 0 {
				x = c.step(g, x, 0, L, false)
				c.up[r] = x
				if c.since > g {
					charged = g
					break
				}
			}
			if h := c.hook; h >= L {
				in := x
				if h > L {
					in = c.ends[(h-1)*P+g%P] + c.st[h-1].delta
				}
				extra := c.Charge(g, in)
				c.known, c.knownExtra = g+1, extra
				if extra != 0 {
					charged = g
				}
			}
		}
		if charged < 0 {
			c.emit(j, 1, ready)
			c.shift(L, 1)
			j += P
			continue
		}
		// Step the consulted requests through the stages from L down.
		latest := c.lastEnd()
		for g := j; g <= charged; g++ {
			x := at + Duration(g)*stride
			if L > 0 {
				x = c.up[g-j]
			}
			end := c.step(g, x, L, S, false)
			latest = max(latest, end)
			if ready != nil {
				ready(g, end)
			}
		}
		return charged + 1, latest
	}
	return j, c.lastEnd()
}

// uniform books stage 0 for the K requests from j in closed form per server:
// each server's requests are evenly spaced, m*stride apart.
func (c *Chain) uniform(at Time, stride Duration, j, K int) {
	st := &c.st[0]
	m := len(st.srv)
	if st.d > 0 {
		for r := 0; r < m; r++ {
			first := at + Duration(j+r)*stride + st.lat
			st.srv[(st.next+r)%m].reserveUniform(first, Duration(m)*stride, K/m, st.d)
		}
	}
	if st.pipe != nil {
		st.pipe.bytes += int64(K) * st.bytes
	}
}

// emit reports the completions of the k periods of requests from j.
func (c *Chain) emit(j, k int, ready func(int, Time)) {
	if ready == nil {
		return
	}
	P := c.period
	ends, delta := c.ends[(len(c.st)-1)*P:], c.st[len(c.st)-1].delta
	for q := 1; q <= k; q++ {
		for r := 0; r < P; r++ {
			g := j + (q-1)*P + r
			ready(g, ends[g%P]+Duration(q)*delta)
		}
	}
}

// shift advances stages L and below by k whole periods.
func (c *Chain) shift(L, k int) {
	P := c.period
	c.advanced += k * P
	for s := L; s < len(c.st); s++ {
		st := &c.st[s]
		kd := Duration(k) * st.delta
		if st.d > 0 {
			per := k * P / len(st.srv)
			busy := Duration(per) * st.d
			for _, r := range st.srv {
				r.free += kd
				r.busy += busy
				r.reserve += uint64(per)
			}
		}
		if st.pipe != nil {
			st.pipe.bytes += int64(k*P) * st.bytes
		}
		ends := c.ends[s*P : (s+1)*P]
		for p := range ends {
			ends[p] += kd
		}
	}
}

// lastEnd returns the latest recorded completion at the last stage.
func (c *Chain) lastEnd() Time {
	P := c.period
	var t Time
	for _, e := range c.ends[(len(c.st)-1)*P:] {
		t = max(t, e)
	}
	return t
}
