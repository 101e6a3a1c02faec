package sim

import (
	"math/rand"
	"testing"

	"repro/internal/units"
)

// chainCase is one randomized pipeline, built twice over identical
// resources: once for Chain.Book and once for the per-request reference.
type chainCase struct {
	ring   []bool // stage s is a ring (else a pipe)
	size   []int
	d      []Duration
	bw     []units.Bandwidth
	lat    []Duration
	nb     []int64
	pre    [][]Duration // per stage, per server: backlog booked before the runs
	charge int          // 0: no hook; 1: sparse charges; 2: charges in a time window
	at     int          // hook stage
}

// build returns the chain's stages over fresh resources carrying the case's
// backlog.
func (k *chainCase) build() []Stage {
	stages := make([]Stage, len(k.ring))
	for s := range stages {
		if k.ring[s] {
			ring := make([]*Resource, k.size[s])
			for r := range ring {
				ring[r] = NewResource("r")
				ring[r].Reserve(0, k.pre[s][r])
			}
			stages[s] = Stage{Ring: ring, D: k.d[s]}
			continue
		}
		p := NewPipe("p", k.bw[s])
		p.Latency = k.lat[s]
		if k.pre[s][0] > 0 {
			p.Transfer(0, int64(k.pre[s][0]))
		}
		stages[s] = Stage{Pipe: p, Bytes: k.nb[s]}
	}
	return stages
}

// extra is the hook: a pure function of the request index and its input
// time, so both sides see the same charges when they consult it with the
// same arguments.
func (k *chainCase) extra(i int, in Time) Duration {
	switch k.charge {
	case 1:
		if (int64(i)*7919+int64(in)/13)%97 == 0 {
			return Duration(1 + int64(in)%500)
		}
	case 2:
		if in%100_000 < 20_000 && (int64(i)+int64(in))%5 == 0 {
			return 300
		}
	}
	return 0
}

type consult struct {
	i  int
	in Time
}

// refBook is the per-request loop Book must equal: Reserve on ring servers,
// Transfer on pipes, the hook consulted once per request.
func refBook(k *chainCase, stages []Stage, at Time, stride Duration, pos int64, n int, log *[]consult) []Time {
	ends := make([]Time, n)
	for i := 0; i < n; i++ {
		x := at + Duration(i)*stride
		for s, st := range stages {
			var extra Duration
			if k.charge != 0 && s == k.at {
				extra = k.extra(i, x)
				*log = append(*log, consult{i, x})
			}
			if st.Pipe != nil {
				_, x = st.Pipe.res.Reserve(x+st.Pipe.Latency, st.Pipe.durationFor(st.Bytes)+extra)
				st.Pipe.bytes += st.Bytes
				continue
			}
			_, x = st.Ring[(pos+int64(i))%int64(len(st.Ring))].Reserve(x, st.D+extra)
		}
		ends[i] = x
	}
	return ends
}

func randChainCase(rng *rand.Rand) *chainCase {
	sizes := []int{1, 2, 3, 4, 6, 8}
	S := 1 + rng.Intn(6)
	k := &chainCase{
		ring: make([]bool, S), size: make([]int, S), d: make([]Duration, S),
		bw: make([]units.Bandwidth, S), lat: make([]Duration, S), nb: make([]int64, S),
		pre: make([][]Duration, S),
	}
	for s := 0; s < S; s++ {
		k.ring[s] = rng.Intn(3) > 0
		k.size[s] = 1
		if k.ring[s] {
			k.size[s] = sizes[rng.Intn(len(sizes))]
			if rng.Intn(10) > 0 {
				k.d[s] = Duration(1 + rng.Intn(3000))
			}
		} else {
			k.bw[s] = units.Bandwidth(50+rng.Intn(3000)) * units.MBps
			k.lat[s] = Duration(rng.Intn(4) * 25)
			k.nb[s] = int64(1 + rng.Intn(64*1024))
		}
		k.pre[s] = make([]Duration, k.size[s])
		for r := range k.pre[s] {
			if rng.Intn(2) == 0 {
				k.pre[s][r] = Duration(rng.Intn(50_000)) // up to ~50 µs of backlog
			}
		}
	}
	if rng.Intn(3) == 0 {
		k.charge = 1 + rng.Intn(2)
		k.at = rng.Intn(S)
	}
	return k
}

// checkChainCase books several runs through Chain.Book and the reference
// loop and compares every completion, consultation and counter.
func checkChainCase(t *testing.T, rng *rand.Rand, k *chainCase, maxN int) {
	t.Helper()
	got, want := k.build(), k.build()
	c := NewChain(got...)
	var gotLog, wantLog []consult
	if k.charge != 0 {
		c.ChargeAt = k.at
		c.Charge = func(i int, in Time) Duration {
			gotLog = append(gotLog, consult{i, in})
			return k.extra(i, in)
		}
	}
	var at Time
	for run := 0; run < 3; run++ {
		stride := Duration(0)
		if rng.Intn(4) > 0 {
			stride = Duration(rng.Intn(4000))
		}
		pos := rng.Int63n(1000)
		n := 1 + rng.Intn(maxN)
		at += Time(rng.Intn(200_000))
		gotLog, wantLog = gotLog[:0], wantLog[:0]
		wantEnds := refBook(k, want, at, stride, pos, n, &wantLog)
		next := 0
		var latest Time
		last := c.Book(at, stride, pos, n, func(i int, end Time) {
			if i != next || end != wantEnds[i] {
				t.Fatalf("run %d (n=%d stride=%d): completion %d at %d, reference request %d at %d",
					run, n, stride, i, end, next, wantEnds[next])
			}
			latest = max(latest, end)
			next++
		})
		if next != n {
			t.Fatalf("run %d: %d completions, want %d", run, next, n)
		}
		if last != max(at, latest) {
			t.Fatalf("run %d: Book returned %d, latest completion %d", run, last, latest)
		}
		if len(gotLog) != len(wantLog) {
			t.Fatalf("run %d: %d charge consultations, reference %d", run, len(gotLog), len(wantLog))
		}
		for i := range gotLog {
			if gotLog[i] != wantLog[i] {
				t.Fatalf("run %d: consultation %d = %+v, reference %+v", run, i, gotLog[i], wantLog[i])
			}
		}
		compareStages(t, got, want)
		if rng.Intn(2) == 0 {
			at = latest
		}
	}
}

func compareStages(t *testing.T, got, want []Stage) {
	t.Helper()
	for s := range got {
		if p, q := got[s].Pipe, want[s].Pipe; p != nil {
			if p.FreeAt() != q.FreeAt() || p.Busy() != q.Busy() || p.Reservations() != q.Reservations() || p.Bytes() != q.Bytes() {
				t.Fatalf("stage %d pipe: free/busy/reservations/bytes %d/%d/%d/%d, reference %d/%d/%d/%d", s,
					p.FreeAt(), p.Busy(), p.Reservations(), p.Bytes(), q.FreeAt(), q.Busy(), q.Reservations(), q.Bytes())
			}
			continue
		}
		for r, a := range got[s].Ring {
			b := want[s].Ring[r]
			if a.FreeAt() != b.FreeAt() || a.Busy() != b.Busy() || a.Reservations() != b.Reservations() {
				t.Fatalf("stage %d server %d: free/busy/reservations %d/%d/%d, reference %d/%d/%d", s, r,
					a.FreeAt(), a.Busy(), a.Reservations(), b.FreeAt(), b.Busy(), b.Reservations())
			}
		}
	}
}

// TestChainMatchesPerRequestLoop pins Chain.Book to the per-request loop on
// random pipelines: ring sizes 1–8 (3 and 6 included), zero and nonzero
// durations, pipe latencies, strides including 0, backlogs up to ~50 µs,
// charge hooks on any stage, and runs of up to a few thousand requests.
func TestChainMatchesPerRequestLoop(t *testing.T) {
	trials := 3000
	if testing.Short() {
		trials = 300
	}
	for seed := int64(0); seed < int64(trials); seed++ {
		rng := rand.New(rand.NewSource(seed))
		checkChainCase(t, rng, randChainCase(rng), 3000)
	}
}

// TestChainAdvancesInClosedForm checks that the closed form is reached, with
// and without a charge hook: a flash-like pipeline whose tag ring is
// backlogged books most of a long run in whole periods.
func TestChainAdvancesInClosedForm(t *testing.T) {
	tags := []*Resource{NewResource("t0"), NewResource("t1"), NewResource("t2"), NewResource("t3")}
	for i, r := range tags {
		r.Reserve(0, Duration(40_000+i*3_000))
	}
	dies := make([]*Resource, 8)
	for i := range dies {
		dies[i] = NewResource("d")
	}
	bus, link := NewPipe("bus", 800*units.MBps), NewPipe("link", 2500*units.MBps)
	c := NewChain(Stage{Ring: tags, D: units.Microsecond}, Stage{Ring: dies, D: 81 * units.Microsecond},
		Stage{Pipe: bus, Bytes: 16 * units.KB}, Stage{Pipe: link, Bytes: 64 * units.KB})
	consulted := 0
	c.Charge, c.ChargeAt = func(int, Time) Duration { consulted++; return 0 }, 1
	c.Book(0, 600, 0, 1000, nil)
	if consulted != 1000 {
		t.Fatalf("charge consulted %d times, want once per request", consulted)
	}
	if c.advanced < 900 {
		t.Fatalf("with a hook, %d of 1000 requests advanced in closed form", c.advanced)
	}
	c.Charge, c.advanced = nil, 0
	c.Book(link.FreeAt(), 600, 3, 1000, nil)
	if c.advanced < 900 {
		t.Fatalf("%d of 1000 requests advanced in closed form", c.advanced)
	}
}

// FuzzChain drives the same comparison from fuzzed seeds and run lengths.
func FuzzChain(f *testing.F) {
	f.Add(int64(1), uint16(500))
	f.Add(int64(7), uint16(3000))
	f.Fuzz(func(t *testing.T, seed int64, n uint16) {
		rng := rand.New(rand.NewSource(seed))
		checkChainCase(t, rng, randChainCase(rng), 1+int(n)%4000)
	})
}
