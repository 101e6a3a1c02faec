package sched

import (
	"testing"

	"repro/internal/kdt"
	"repro/internal/kernel"
	"repro/internal/sim"
)

// fakeCtx is a deterministic scheduler harness: dispatching a screen marks
// it running; the test completes screens by hand.
type fakeCtx struct {
	now      sim.Time
	workers  int
	running  map[int]*kernel.Screen
	chain    *kernel.Chain
	dispatch []string // log of "ref@worker"
}

func newFakeCtx(workers int) *fakeCtx {
	return &fakeCtx{workers: workers, running: map[int]*kernel.Screen{}, chain: &kernel.Chain{}}
}

func (c *fakeCtx) Workers() int         { return c.workers }
func (c *fakeCtx) Free(w int) bool      { return c.running[w] == nil }
func (c *fakeCtx) Chain() *kernel.Chain { return c.chain }

func (c *fakeCtx) Dispatch(s *kernel.Screen, w int) {
	if c.running[w] != nil {
		panic("dispatch to busy worker")
	}
	c.chain.MarkRunning(s, w, c.now)
	c.running[w] = s
	c.dispatch = append(c.dispatch, s.Ref())
}

// complete finishes the screen on worker w.
func (c *fakeCtx) complete(w int) kernel.Completion {
	s := c.running[w]
	if s == nil {
		panic("no screen on worker")
	}
	c.now += 10
	delete(c.running, w)
	return c.chain.MarkDone(s, c.now)
}

func (c *fakeCtx) runningCount() int { return len(c.running) }

// addApp builds an app: kernelShapes[k][m] = screens in microblock m.
func (c *fakeCtx) addApp(id int, kernelShapes [][]int) {
	a := &kernel.App{Name: "app", ID: id}
	for ki, shape := range kernelShapes {
		k := &kernel.Kernel{Name: "k", ID: ki, App: id}
		for mi, n := range shape {
			mb := &kernel.Microblock{}
			for si := 0; si < n; si++ {
				mb.Screens = append(mb.Screens, &kernel.Screen{
					Ops: []kdt.Op{{Kind: kdt.OpCompute, Instr: 1}},
					App: id, Kernel: ki, MB: mi, Idx: si,
				})
			}
			k.MBs = append(k.MBs, mb)
		}
		a.Kernels = append(a.Kernels, k)
	}
	c.chain.AddApp(a, c.now)
}

func TestNewUnknown(t *testing.T) {
	if _, err := New("bogus"); err == nil {
		t.Error("unknown scheduler accepted")
	}
	for _, n := range []string{"InterSt", "InterDy", "IntraIo", "IntraO3", "SIMD"} {
		s, err := New(n)
		if err != nil || s.Name() != n {
			t.Errorf("New(%q) = %v, %v", n, s, err)
		}
	}
}

func TestInterStBindsAppsToWorkers(t *testing.T) {
	ctx := newFakeCtx(4)
	ctx.addApp(0, [][]int{{1}, {1}}) // two kernels
	ctx.addApp(2, [][]int{{1}})
	s, _ := New("InterSt")
	s.Kick(ctx)
	// App0 on worker 0, App2 on worker 2 — concurrently.
	if ctx.runningCount() != 2 {
		t.Fatalf("running = %d, want 2", ctx.runningCount())
	}
	if ctx.running[0] == nil || ctx.running[2] == nil {
		t.Fatalf("wrong workers: %v", ctx.dispatch)
	}
	// App0's second kernel waits for the first, even though workers idle.
	s.Kick(ctx)
	if ctx.runningCount() != 2 {
		t.Error("static scheduler used a foreign worker")
	}
	ctx.complete(0)
	s.Kick(ctx)
	if ctx.running[0] == nil || ctx.running[0].Kernel != 1 {
		t.Error("app0's second kernel did not follow on worker 0")
	}
}

func TestInterStSerializesWholeAppOnOneWorker(t *testing.T) {
	// A single app (the homogeneous-workload shape) keeps one LWP busy and
	// leaves the rest idle — the poor utilization of Fig. 5b.
	ctx := newFakeCtx(6)
	ctx.addApp(0, [][]int{{2, 1}, {1}})
	s, _ := New("InterSt")
	s.Kick(ctx)
	if ctx.runningCount() != 1 {
		t.Fatalf("static scheduler spread a single app: %d running", ctx.runningCount())
	}
	// Even a parallel microblock executes serially on the bound LWP.
	ctx.complete(0)
	s.Kick(ctx)
	if ctx.runningCount() != 1 || ctx.running[0].Idx != 1 {
		t.Error("second screen of mb0 should run next on worker 0")
	}
}

func TestInterDySpreadsKernels(t *testing.T) {
	ctx := newFakeCtx(4)
	ctx.addApp(0, [][]int{{1}, {1}}) // k0, k1
	ctx.addApp(1, [][]int{{1}, {1}}) // k2, k3
	s, _ := New("InterDy")
	s.Kick(ctx)
	// Four kernels, four workers: all running at once (Fig. 5c).
	if ctx.runningCount() != 4 {
		t.Fatalf("running = %d, want 4", ctx.runningCount())
	}
	seen := map[int]bool{}
	for _, scr := range ctx.running {
		seen[scr.App*10+scr.Kernel] = true
	}
	if len(seen) != 4 {
		t.Error("same kernel dispatched to two workers")
	}
}

func TestInterDyKernelStaysOnWorker(t *testing.T) {
	ctx := newFakeCtx(2)
	ctx.addApp(0, [][]int{{1, 1, 1}}) // one kernel, three serial microblocks
	s, _ := New("InterDy")
	s.Kick(ctx)
	if ctx.runningCount() != 1 {
		t.Fatal("kernel should occupy one worker")
	}
	w := ctx.running[0].LWP
	ctx.complete(w)
	s.Kick(ctx)
	if ctx.running[w] == nil || ctx.running[w].MB != 1 {
		t.Error("kernel did not continue on its worker")
	}
}

func TestIntraIoSplitsScreensButStaysInOrder(t *testing.T) {
	ctx := newFakeCtx(4)
	ctx.addApp(0, [][]int{{2}, {2}}) // k0 (2 screens), then k1
	s, _ := New("IntraIo")
	s.Kick(ctx)
	// k0's two screens run concurrently; k1 must NOT start (in-order).
	if ctx.runningCount() != 2 {
		t.Fatalf("running = %d, want 2", ctx.runningCount())
	}
	for _, scr := range ctx.running {
		if scr.Kernel != 0 {
			t.Error("in-order scheduler started a later kernel")
		}
	}
}

func TestIntraO3BorrowsAcrossKernels(t *testing.T) {
	ctx := newFakeCtx(4)
	ctx.addApp(0, [][]int{{2}, {2}})
	s, _ := New("IntraO3")
	s.Kick(ctx)
	// k0's two screens plus k1's first microblock screens: 4 workers busy.
	if ctx.runningCount() != 4 {
		t.Fatalf("running = %d, want 4 (out-of-order borrow)", ctx.runningCount())
	}
}

func TestIntraO3RespectsMicroblockDependency(t *testing.T) {
	ctx := newFakeCtx(8)
	ctx.addApp(0, [][]int{{1, 4}})
	s, _ := New("IntraO3")
	s.Kick(ctx)
	if ctx.runningCount() != 1 {
		t.Fatal("mb1 screens dispatched before mb0 completed")
	}
	ctx.complete(ctx.running[0].LWP)
	s.Kick(ctx)
	if ctx.runningCount() != 4 {
		t.Errorf("after mb0: running = %d, want 4", ctx.runningCount())
	}
}

func TestSIMDOneKernelAtATime(t *testing.T) {
	ctx := newFakeCtx(8)
	ctx.addApp(0, [][]int{{4}})
	ctx.addApp(1, [][]int{{4}})
	s, _ := New("SIMD")
	s.Kick(ctx)
	if ctx.runningCount() != 4 {
		t.Fatalf("running = %d, want 4", ctx.runningCount())
	}
	for _, scr := range ctx.running {
		if scr.App != 0 {
			t.Error("SIMD started the second instance early")
		}
	}
	// Finish all four; the next instance may then start.
	for w := 0; w < 8; w++ {
		if ctx.running[w] != nil {
			ctx.complete(w)
		}
	}
	s.Kick(ctx)
	if ctx.runningCount() != 4 {
		t.Fatalf("second instance: running = %d, want 4", ctx.runningCount())
	}
	for _, scr := range ctx.running {
		if scr.App != 1 {
			t.Error("wrong instance running")
		}
	}
}

func TestSIMDSerialMicroblockUsesOneWorker(t *testing.T) {
	ctx := newFakeCtx(8)
	ctx.addApp(0, [][]int{{1, 8}})
	s, _ := New("SIMD")
	s.Kick(ctx)
	if ctx.runningCount() != 1 {
		t.Errorf("serial microblock used %d workers", ctx.runningCount())
	}
}

func TestAllSchedulersDrainEverything(t *testing.T) {
	// Property: repeatedly kicking and completing must finish every
	// workload shape without deadlock, for every scheduler.
	shapes := [][][]int{
		{{1}},
		{{3, 1, 2}},
		{{1}, {2}, {1, 1}},
	}
	for _, name := range []string{"InterSt", "InterDy", "IntraIo", "IntraO3", "SIMD"} {
		s, _ := New(name)
		ctx := newFakeCtx(3)
		for i, shape := range shapes {
			ctx.addApp(i, shape)
		}
		for step := 0; step < 1000 && !ctx.chain.AllDone(); step++ {
			s.Kick(ctx)
			if ctx.runningCount() == 0 {
				t.Fatalf("%s: deadlock with work remaining", name)
			}
			// Complete the lowest busy worker.
			for w := 0; w < ctx.workers; w++ {
				if ctx.running[w] != nil {
					ctx.complete(w)
					break
				}
			}
		}
		if !ctx.chain.AllDone() {
			t.Errorf("%s: did not drain", name)
		}
	}
}
