package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/units"
)

func TestEngineRunsEventsInTimeOrder(t *testing.T) {
	var e Engine
	var got []Time
	for _, at := range []Time{50, 10, 30, 20, 40} {
		at := at
		e.Schedule(at, func() { got = append(got, e.Now()) })
	}
	e.Run()
	want := []Time{10, 20, 30, 40, 50}
	if len(got) != len(want) {
		t.Fatalf("ran %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d at %d, want %d", i, got[i], want[i])
		}
	}
}

func TestEngineSameTimeFIFO(t *testing.T) {
	var e Engine
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(100, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events reordered: %v", order)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	var e Engine
	var trace []string
	e.Schedule(10, func() {
		trace = append(trace, "a")
		e.After(5, func() { trace = append(trace, "c") })
		e.Schedule(12, func() { trace = append(trace, "b") })
	})
	e.Run()
	if len(trace) != 3 || trace[0] != "a" || trace[1] != "b" || trace[2] != "c" {
		t.Fatalf("trace = %v, want [a b c]", trace)
	}
	if e.Now() != 15 {
		t.Errorf("final time %d, want 15", e.Now())
	}
}

func TestEngineSchedulePastPanics(t *testing.T) {
	var e Engine
	e.Schedule(100, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling in the past")
		}
	}()
	e.Schedule(50, func() {})
}

func TestEngineRunUntil(t *testing.T) {
	var e Engine
	ran := 0
	e.Schedule(10, func() { ran++ })
	e.Schedule(20, func() { ran++ })
	e.Schedule(30, func() { ran++ })
	e.RunUntil(20)
	if ran != 2 {
		t.Errorf("ran %d events by t=20, want 2", ran)
	}
	if e.Now() != 20 {
		t.Errorf("now = %d, want 20", e.Now())
	}
	e.Run()
	if ran != 3 {
		t.Errorf("ran %d total, want 3", ran)
	}
}

func TestEngineRandomOrderIsDeterministic(t *testing.T) {
	run := func(seed int64) []Time {
		rng := rand.New(rand.NewSource(seed))
		var e Engine
		var got []Time
		for i := 0; i < 500; i++ {
			at := Time(rng.Intn(1000))
			e.Schedule(at, func() { got = append(got, e.Now()) })
		}
		e.Run()
		return got
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("identical seeds produced different schedules")
		}
	}
	if !sort.SliceIsSorted(a, func(i, j int) bool { return a[i] < a[j] }) {
		t.Fatal("events out of time order")
	}
}

func TestResourceFIFO(t *testing.T) {
	r := NewResource("lwp0")
	s1, e1 := r.Reserve(0, 100)
	if s1 != 0 || e1 != 100 {
		t.Fatalf("first reservation [%d,%d), want [0,100)", s1, e1)
	}
	// Requested while busy: queues behind.
	s2, e2 := r.Reserve(50, 100)
	if s2 != 100 || e2 != 200 {
		t.Fatalf("second reservation [%d,%d), want [100,200)", s2, e2)
	}
	// Requested after idle gap: starts at request time.
	s3, e3 := r.Reserve(500, 10)
	if s3 != 500 || e3 != 510 {
		t.Fatalf("third reservation [%d,%d), want [500,510)", s3, e3)
	}
	if r.Busy() != 210 {
		t.Errorf("busy = %d, want 210", r.Busy())
	}
	if r.Reservations() != 3 {
		t.Errorf("reservations = %d, want 3", r.Reservations())
	}
}

func TestResourceZeroDuration(t *testing.T) {
	r := NewResource("x")
	r.Reserve(0, 100)
	s, e := r.Reserve(10, 0)
	if s != 100 || e != 100 {
		t.Errorf("zero reservation = [%d,%d), want [100,100)", s, e)
	}
	if r.Busy() != 100 {
		t.Errorf("zero reservation changed busy time")
	}
}

func TestResourceReserveAtOrAfter(t *testing.T) {
	r := NewResource("x")
	s, e := r.ReserveAtOrAfter(10, 50, 5)
	if s != 50 || e != 55 {
		t.Errorf("got [%d,%d), want [50,55)", s, e)
	}
}

func TestResourceIntervalsNeverOverlap(t *testing.T) {
	f := func(durs []uint8) bool {
		r := NewResource("p")
		at, prevEnd := Time(0), Time(0)
		for _, d := range durs {
			start, end := r.Reserve(at, Duration(d))
			if start < prevEnd || end < start {
				return false
			}
			prevEnd = end
			at += Time(d) / 2 // request faster than service to force queueing
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestResourceBusyEqualsSumOfIntervals(t *testing.T) {
	f := func(durs []uint8) bool {
		r := NewResource("p")
		var sum Duration
		for i, d := range durs {
			start, end := r.Reserve(Time(i*3), Duration(d))
			sum += end - start
		}
		return sum == r.Busy()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPipeTransferTime(t *testing.T) {
	p := NewPipe("pcie", units.GBps)
	s, e := p.Transfer(0, units.GB)
	if s != 0 || e != units.Second {
		t.Fatalf("1GB at 1GB/s = [%d,%d), want [0,1s)", s, e)
	}
	if p.Bytes() != units.GB {
		t.Errorf("bytes = %d", p.Bytes())
	}
}

func TestPipeSerializes(t *testing.T) {
	p := NewPipe("ch", 800*units.MBps)
	_, e1 := p.Transfer(0, 8*units.KB)
	s2, _ := p.Transfer(0, 8*units.KB)
	if s2 != e1 {
		t.Errorf("second transfer starts at %d, want %d", s2, e1)
	}
}

func TestPipeLatency(t *testing.T) {
	p := NewPipe("srio", units.GBps)
	p.Latency = 100
	s, _ := p.Transfer(0, 1024)
	if s != 100 {
		t.Errorf("transfer started at %d, want 100 (after latency)", s)
	}
}

func TestPipeZeroBytes(t *testing.T) {
	p := NewPipe("x", units.GBps)
	s, e := p.Transfer(42, 0)
	if s != 42 || e != 42 {
		t.Errorf("zero transfer = [%d,%d), want [42,42)", s, e)
	}
}

func TestResourceReset(t *testing.T) {
	r := NewResource("x")
	r.Reserve(0, 10)
	r.Reset()
	if r.Busy() != 0 || r.FreeAt() != 0 {
		t.Error("reset did not clear resource")
	}
	p := NewPipe("y", units.GBps)
	p.Transfer(0, 100)
	p.Reset()
	if p.Bytes() != 0 || p.Busy() != 0 {
		t.Error("reset did not clear pipe")
	}
}
