package core

import (
	"context"
	"fmt"

	"repro/internal/flash"
	"repro/internal/flashctrl"
	"repro/internal/flashvisor"
	"repro/internal/host"
	"repro/internal/kdt"
	"repro/internal/kernel"
	"repro/internal/lwp"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/pcie"
	"repro/internal/power"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/storengine"
	"repro/internal/units"
)

// fuSpan records one screen's compute activity for the Fig. 15 series.
type fuSpan struct {
	start, end sim.Time
	fus        float64 // average functional units active
	ioWatts    float64 // storage-path power active over the span
	ioStart    sim.Time
	ioEnd      sim.Time
}

// Device is one assembled accelerator system.
type Device struct {
	Cfg Config

	eng     *sim.Engine
	cores   []*lwp.Core
	psc     *lwp.PSC
	net     *noc.Network
	ddr     *mem.Memory
	spad    *mem.Memory
	link    *pcie.Link
	visor   *flashvisor.Visor
	storeng *storengine.Engine
	hostm   *host.Host
	path    dataPath
	sch     sched.Scheduler
	chain   *kernel.Chain

	workers  int
	running  map[int]*kernel.Screen
	lastEnd  []sim.Time // per worker: when its previous screen ended
	lastLWP  map[*kernel.Kernel]int
	execBusy []units.Duration

	offloadAt sim.Time // PCIe frontier for kernel downloads
	pending   []*kernel.App
	arrivals  []sim.Time
	// offloaded records each offload's device-side decoded tables and wire
	// sizes, so Snapshot can capture the offloaded kernel set and Fork can
	// replay it without re-encoding, re-transferring-from, or re-parsing
	// the host-side tables.
	offloaded []offloadedApp
	spans     []fuSpan
	doneAt    sim.Time
	ran       bool
	runErr    error

	// donePool recycles screen-completion events: each carries its closure
	// allocated once, so steady-state screen dispatch schedules completions
	// without allocating. Single-goroutine like the engine itself.
	donePool []*screenDoneEvent
}

// screenDoneEvent is a pooled completion callback for one in-flight screen.
type screenDoneEvent struct {
	d  *Device
	s  *kernel.Screen
	w  int
	fn func() // bound to run once at creation, reused across screens
}

func (e *screenDoneEvent) run() {
	d, s, w := e.d, e.s, e.w
	e.s = nil
	d.donePool = append(d.donePool, e)
	d.onScreenDone(s, w)
}

// scheduleScreenDone enqueues onScreenDone(s, w) at time at through the
// event pool.
func (d *Device) scheduleScreenDone(at sim.Time, s *kernel.Screen, w int) {
	var e *screenDoneEvent
	if n := len(d.donePool); n > 0 {
		e = d.donePool[n-1]
		d.donePool[n-1] = nil
		d.donePool = d.donePool[:n-1]
	} else {
		e = &screenDoneEvent{d: d}
		e.fn = e.run
	}
	e.s, e.w = s, w
	d.eng.Schedule(at, e.fn)
}

// New builds a device. The flash backbone and host SSD both exist so the
// same binary can run every system; only the selected datapath is timed.
func New(cfg Config) (*Device, error) {
	return build(cfg, nil)
}

// build assembles a device, either from scratch or forked from an image:
// with a non-nil image the FTL forks the image's mapping state instead of
// formatting, and the functional payload layers attach copy-on-write.
func build(cfg Config, img *Image) (*Device, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := &Device{
		Cfg:     cfg,
		eng:     &sim.Engine{},
		workers: cfg.workerCount(),
		running: make(map[int]*kernel.Screen),
		lastLWP: make(map[*kernel.Kernel]int),
		chain:   &kernel.Chain{},
	}
	d.lastEnd = make([]sim.Time, d.workers)
	d.execBusy = make([]units.Duration, d.workers)
	for i := range d.lastEnd {
		d.lastEnd[i] = -1
	}

	for i := 0; i < cfg.LWPs; i++ {
		d.cores = append(d.cores, lwp.NewCore(i, cfg.CostModel))
	}
	d.psc = lwp.NewPSC(d.cores, cfg.WakeLatency)

	var err error
	if d.net, err = noc.New(cfg.Noc); err != nil {
		return nil, err
	}
	if d.ddr, err = mem.New(mem.DDR3LConfig()); err != nil {
		return nil, err
	}
	spadCfg := mem.ScratchpadConfig()
	if cfg.ScratchpadBytes > 0 {
		spadCfg.Size = cfg.ScratchpadBytes
	}
	if d.spad, err = mem.New(spadCfg); err != nil {
		return nil, err
	}
	if d.link, err = pcie.New(cfg.PCIe); err != nil {
		return nil, err
	}

	bb, err := flash.NewBackbone(cfg.Flash, cfg.FlashTiming)
	if err != nil {
		return nil, err
	}
	bb.Functional = cfg.Functional
	ctrl, err := flashctrl.New(cfg.Ctrl, bb)
	if err != nil {
		return nil, err
	}
	if img != nil {
		if img.flashBase != nil {
			bb.AttachBase(img.flashBase)
		}
		d.visor, err = flashvisor.NewFromImage(cfg.Visor, ctrl, d.ddr, d.spad, d.net, img.ftl)
	} else {
		d.visor, err = flashvisor.New(cfg.Visor, ctrl, d.ddr, d.spad, d.net)
	}
	if err != nil {
		return nil, err
	}
	if d.storeng, err = storengine.New(cfg.Storengine, d.eng, d.visor); err != nil {
		return nil, err
	}
	if d.hostm, err = host.New(cfg.Host, d.link); err != nil {
		return nil, err
	}
	if img != nil && img.hostBase != nil {
		d.hostm.AttachStore(img.hostBase)
	}

	if cfg.System.IsFlashAbacus() {
		d.path = &visorPath{v: d.visor, overlap: !cfg.NoOverlap}
	} else {
		d.path = &hostPath{h: d.hostm}
	}
	if d.sch, err = sched.New(cfg.System.String()); err != nil {
		return nil, err
	}
	return d, nil
}

// Visor exposes the Flashvisor for verification and tooling.
func (d *Device) Visor() *flashvisor.Visor { return d.visor }

// InstallFlashRetrier installs a deterministic wear model on the flash
// backbone: every page-group read pays the model's extra sensing
// cycles, surfacing as latency in the storengine path. Install before
// Run; pass nil to remove.
func (d *Device) InstallFlashRetrier(r flash.ReadRetrier) {
	d.visor.Controller().BB.SetRetrier(r)
}

// PopulateInput installs input data at a logical byte address on whichever
// store the system reads from (flash backbone or external SSD), untimed.
func (d *Device) PopulateInput(addr, bytes int64, data []byte) error {
	return d.path.Populate(addr, bytes, data)
}

// OffloadApp downloads an application's kernel description tables through
// the PCIe BAR (paper §4 "Offload") and schedules its arrival at the
// doorbell interrupt. It must be called before Run.
func (d *Device) OffloadApp(name string, tables []*kdt.Table) error {
	if d.ran {
		return fmt.Errorf("core: offload after run")
	}
	if len(tables) == 0 {
		return fmt.Errorf("core: app %q has no kernels", name)
	}
	appIdx := len(d.pending)
	app := &kernel.App{Name: name, ID: appIdx}
	rec := offloadedApp{name: name}
	for ki, tab := range tables {
		blob, err := tab.Encode()
		if err != nil {
			return fmt.Errorf("core: encoding %s kernel %d: %w", name, ki, err)
		}
		landed, err := d.link.WriteBAR(d.offloadAt, int64(len(blob)))
		if err != nil {
			return err
		}
		d.offloadAt = landed
		decoded, err := kdt.Decode(blob)
		if err != nil {
			return fmt.Errorf("core: device rejected %s kernel %d: %w", name, ki, err)
		}
		app.Kernels = append(app.Kernels, kernel.FromKDT(decoded, appIdx, ki))
		rec.tables = append(rec.tables, decoded)
		rec.wireLens = append(rec.wireLens, int64(len(blob)))
	}
	d.finishOffload(app, rec)
	return nil
}

// offloadedApp is the replayable record of one OffloadApp call: the
// device-side decoded tables (immutable once decoded — runtime kernels
// alias but never mutate them) and each kernel blob's wire size, which is
// all the PCIe BAR timing depends on.
type offloadedApp struct {
	name     string
	tables   []*kdt.Table
	wireLens []int64
}

// offloadDecoded replays a recorded offload on a forked device: identical
// BAR transfers and doorbell, identical runtime kernels, no host-side
// encode or device-side parse.
func (d *Device) offloadDecoded(rec offloadedApp) error {
	if d.ran {
		return fmt.Errorf("core: offload after run")
	}
	appIdx := len(d.pending)
	app := &kernel.App{Name: rec.name, ID: appIdx}
	for ki, tab := range rec.tables {
		landed, err := d.link.WriteBAR(d.offloadAt, rec.wireLens[ki])
		if err != nil {
			return err
		}
		d.offloadAt = landed
		app.Kernels = append(app.Kernels, kernel.FromKDT(tab, appIdx, ki))
	}
	d.finishOffload(app, rec)
	return nil
}

// finishOffload rings the doorbell and records the app's arrival.
func (d *Device) finishOffload(app *kernel.App, rec offloadedApp) {
	arrival := d.link.Doorbell(d.offloadAt)
	d.pending = append(d.pending, app)
	d.arrivals = append(d.arrivals, arrival)
	d.offloaded = append(d.offloaded, rec)
}

// scheduler context implementation.

// Workers returns the compute-LWP count.
func (d *Device) Workers() int { return d.workers }

// Free reports whether worker w has no screen in flight.
func (d *Device) Free(w int) bool { return d.running[w] == nil }

// Chain returns the multi-app execution chain.
func (d *Device) Chain() *kernel.Chain { return d.chain }

// Dispatch begins executing screen s on worker w.
func (d *Device) Dispatch(s *kernel.Screen, w int) {
	if d.running[w] != nil {
		panic(fmt.Sprintf("core: dispatch %s to busy worker %d", s.Ref(), w))
	}
	d.running[w] = s
	d.execScreen(s, w)
}

// mixOf converts a COMPUTE op's wire mix.
func mixOf(op kdt.Op) lwp.Mix {
	return lwp.Mix{Mul: float64(op.MulMilli) / 1000, LdSt: float64(op.LdStMilli) / 1000}
}

// execScreen models one screen's life: boot/wake, input streaming through
// the datapath, VLIW compute (overlapped when the datapath supports it),
// functional EXECs, and output write-back. Completion is an engine event.
func (d *Device) execScreen(s *kernel.Screen, w int) {
	now := d.eng.Now()
	d.chain.MarkRunning(s, w, now)
	core := d.cores[w]
	k := d.chain.Apps[s.App].Kernels[s.Kernel]
	owner := s.App*1_000_000 + s.Kernel

	start := now
	// PSC wake-up after sleep (cold start or long idle).
	if d.lastEnd[w] < 0 || now-d.lastEnd[w] > d.Cfg.SleepAfter {
		start = d.psc.Boot(now, w, 0)
	}
	// Cross-LWP handoff: Flashvisor re-targets the kernel's data section.
	if prev, ok := d.lastLWP[k]; ok && prev != w {
		start += d.Cfg.DispatchOverhead
	}
	d.lastLWP[k] = w
	d.psc.MarkBusy(w)

	var (
		readEnd = start
		compDur units.Duration
		mix     lwp.Mix
	)
	for _, op := range s.Ops {
		switch op.Kind {
		case kdt.OpRead:
			// The section's previous buffer is dead once this read lands,
			// so offer it to the datapath for reuse.
			done, data, err := d.path.Read(start, owner, op.FlashAddr, op.Bytes, k.Sections[op.Section])
			if err != nil {
				d.fail(err)
				return
			}
			if done > readEnd {
				readEnd = done
			}
			if data != nil {
				k.Sections[op.Section] = data
			}
		case kdt.OpCompute:
			mix = mixOf(op)
			compDur += core.Model.Duration(op.Instr, mix)
		}
	}
	ioDur := readEnd - start

	var execEnd sim.Time
	if d.path.Overlap() && ioDur > 0 {
		// Double-buffered streaming: compute chases the stream; the
		// longer of the two hides the other behind the pipeline fill.
		execEnd = units.MaxTime(readEnd, start+d.path.Startup()+compDur)
	} else {
		execEnd = readEnd + compDur
	}

	if d.Cfg.Functional {
		if err := d.runExecOps(s, k); err != nil {
			d.fail(err)
			return
		}
	}

	end := execEnd
	for _, op := range s.Ops {
		if op.Kind != kdt.OpWrite {
			continue
		}
		var data []byte
		if buf := k.Sections[op.Section]; int64(len(buf)) >= op.Bytes {
			data = buf[:op.Bytes]
		}
		done, err := d.path.Write(execEnd, owner, op.FlashAddr, op.Bytes, data)
		if err != nil {
			d.fail(err)
			return
		}
		if done > end {
			end = done
		}
	}
	if end <= now {
		end = now + 1 // every screen makes progress
	}

	core.Res.Reserve(start, end-start)
	d.execBusy[w] += compDur
	if d.Cfg.CollectSeries {
		sp := fuSpan{start: start, end: end, ioStart: start, ioEnd: readEnd}
		if end > start {
			sp.fus = core.Model.FUsBusy(mix) * float64(compDur) / float64(end-start)
		}
		if ioDur > 0 {
			sp.ioWatts = d.storagePathWatts()
		}
		d.spans = append(d.spans, sp)
	}
	d.scheduleScreenDone(end, s, w)
}

// storagePathWatts estimates the power engaged while a screen streams data,
// for the Fig. 15b series: the SIMD path wakes the host CPU, DRAM, SSD, and
// PCIe; the FlashAbacus path only the backbone.
func (d *Device) storagePathWatts() float64 {
	r := d.Cfg.Rates
	if d.Cfg.System == SIMD {
		return r.HostCPUActive - r.HostCPUIdle + r.SSD + r.HostDRAM + r.PCIe
	}
	return r.Backbone
}

// runExecOps invokes the screen's registered builtins against the kernel's
// data sections.
func (d *Device) runExecOps(s *kernel.Screen, k *kernel.Kernel) error {
	nScreens := len(d.chain.Apps[s.App].Kernels[s.Kernel].MBs[s.MB].Screens)
	for _, op := range s.Ops {
		if op.Kind != kdt.OpExec {
			continue
		}
		fn, name, ok := kernel.Builtin(op.Builtin)
		if !ok {
			return fmt.Errorf("core: %s references unregistered builtin %d", s.Ref(), op.Builtin)
		}
		ctx := &kernel.ExecCtx{
			Sections: k.Sections,
			Arg:      op.Arg,
			Screen:   s.Idx,
			Screens:  nScreens,
		}
		if err := fn(ctx); err != nil {
			return fmt.Errorf("core: builtin %s in %s: %w", name, s.Ref(), err)
		}
	}
	return nil
}

func (d *Device) onScreenDone(s *kernel.Screen, w int) {
	now := d.eng.Now()
	d.psc.MarkIdle(w)
	d.lastEnd[w] = now
	delete(d.running, w)
	d.chain.MarkDone(s, now)
	if d.chain.AllDone() {
		d.doneAt = now
		d.storeng.Stop()
		return
	}
	d.sch.Kick(d)
}

func (d *Device) fail(err error) {
	if d.runErr == nil {
		d.runErr = err
	}
	d.storeng.Stop()
}

// cancelCheckEvery is how many simulation events Run processes between
// context checks: frequent enough that cancellation lands within
// microseconds of wall time, rare enough to stay off the event hot path.
const cancelCheckEvery = 1024

// Run executes every offloaded application to completion and returns the
// measured result. Cancelling ctx abandons the simulation between events
// and returns the context's error; the device is single-use either way.
func (d *Device) Run(ctx context.Context) (*stats.Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if d.ran {
		return nil, fmt.Errorf("core: device already ran")
	}
	d.ran = true
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(d.pending) == 0 {
		return nil, fmt.Errorf("core: nothing offloaded")
	}
	for i, app := range d.pending {
		app, at := app, d.arrivals[i]
		d.eng.Schedule(at, func() {
			d.chain.AddApp(app, at)
			d.sch.Kick(d)
		})
	}
	if d.Cfg.System.IsFlashAbacus() {
		d.storeng.Start()
	}
	// The loop condition checks runErr first: once a simulation failure is
	// recorded there is nothing left to observe, and draining the queue
	// would let a concurrent cancellation mask the real, deterministic
	// error below.
	for i := uint64(1); d.runErr == nil && d.eng.Step(); i++ {
		if i%cancelCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("core: %s run cancelled after %d events: %w",
					d.Cfg.System, d.eng.Processed(), err)
			}
		}
	}
	if d.runErr != nil {
		return nil, d.runErr
	}
	if !d.chain.AllDone() {
		return nil, fmt.Errorf("core: %s run stalled with work remaining", d.Cfg.System)
	}
	return d.collect(), nil
}

// collect assembles the run's metrics.
func (d *Device) collect() *stats.Result {
	r := &stats.Result{System: d.Cfg.System.String()}
	r.Makespan = d.doneAt
	for _, k := range d.chain.Kernels() {
		r.Bytes += k.Bytes()
		r.KernelLatencies = append(r.KernelLatencies, k.DoneAt-k.IssueAt)
		r.CompletionTimes = append(r.CompletionTimes, k.DoneAt)
	}
	var busy units.Duration
	for _, b := range d.execBusy {
		busy += b
	}
	if r.Makespan > 0 && d.workers > 0 {
		r.WorkerUtil = float64(busy) / (float64(d.workers) * float64(r.Makespan))
	}
	r.AccelTime = busy
	if d.Cfg.System == SIMD {
		// Fig. 3d decomposes wall time: the SSD and storage-stack legs
		// are serial (the body loop never overlaps them with kernel
		// execution), so the accelerator's share is the remainder. The
		// PCIe DMA leg belongs to the storage-stack bucket — the paper's
		// accelerator bucket only absorbs DMA that overlaps execution.
		r.SSDTime = d.hostm.SSDBusy()
		r.StackTime = d.hostm.CPUBusy() + d.link.Busy()
		if wall := r.Makespan - r.SSDTime - r.StackTime; wall > 0 {
			r.AccelTime = wall
		}
	} else {
		dies := d.Cfg.Flash.Channels * d.Cfg.Flash.DieRows()
		if dies > 0 {
			r.SSDTime = units.Duration(int64(d.backboneBusy()) / int64(dies))
		}
		// No host storage stack by construction, so StackTime stays zero.
		if drain := d.path.Drain(); drain > r.Makespan {
			r.DrainTime = drain - r.Makespan
		}
	}
	r.Visor = d.visor.Stats()
	r.FlashRetries, r.RetryTime = d.visor.Controller().BB.RetryStats()
	r.BGReclaims = d.storeng.Stats().BGReclaims
	r.Journals = d.storeng.Stats().Journals
	r.LockConflicts = d.visor.Lock.Conflicts()
	r.LockWaited = d.visor.Lock.Waited()
	d.accountEnergy(r)
	if d.Cfg.CollectSeries {
		d.buildSeries(r)
	}
	return r
}

func (d *Device) backboneBusy() units.Duration {
	return d.visor.Controller().BB.DieBusy()
}

// accountEnergy charges every component per §5.3's decomposition.
func (d *Device) accountEnergy(r *stats.Result) {
	var m power.Meter
	rates := d.Cfg.Rates
	span := r.Makespan

	// Worker LWPs: active while executing instructions, awake-idle while
	// stalled inside a screen, asleep otherwise.
	var occupied units.Duration
	for w := 0; w < d.workers; w++ {
		occ := d.cores[w].Res.Busy()
		occupied += occ
		exec := d.execBusy[w]
		m.AddBusy(fmt.Sprintf("lwp%d", w), power.Compute, exec, rates.LWPActive)
		if occ > exec {
			m.AddBusy(fmt.Sprintf("lwp%d", w), power.Compute, occ-exec, rates.LWPIdle)
		}
		if span > occ {
			m.AddBusy(fmt.Sprintf("lwp%d", w), power.Compute, span-occ, rates.LWPSleep)
		}
	}
	m.AddBusy("ddr3l", power.Compute, d.ddr.Busy(), rates.DDR3L)

	if d.Cfg.System.IsFlashAbacus() {
		// Flashvisor and Storengine poll their hardware queues for the
		// entire run — the always-busy cores InterSt pays for (§5.3).
		m.AddBusy("flashvisor", power.Storage, span, rates.LWPActive)
		m.AddBusy("storengine", power.Storage, span, rates.LWPActive)
		m.AddBusy("scratchpad", power.Storage, d.spad.Busy(), rates.Scratch)
		geo := d.Cfg.Flash
		dies := geo.Channels * geo.DieRows()
		if dies > 0 {
			m.AddBusy("flash-backbone", power.Storage,
				units.Duration(int64(d.backboneBusy())/int64(dies)), rates.Backbone)
		}
		m.AddBusy("pcie", power.DataMove, d.link.Busy(), rates.PCIe)
	} else {
		m.AddBusy("nvme-ssd", power.Storage, d.hostm.SSDBusy(), rates.SSD)
		m.AddBusy("host-cpu-stack", power.Storage, d.hostm.StackBusy(), rates.HostCPUActive-rates.HostCPUIdle)
		m.AddBusy("host-cpu-copy", power.DataMove, d.hostm.CopyBusy(), rates.HostCPUActive-rates.HostCPUIdle)
		// The host stays engaged for the whole body loop.
		m.AddBusy("host-cpu-base", power.DataMove, span, rates.HostCPUIdle)
		m.AddBusy("host-dram", power.DataMove, d.hostm.DRAMBusy(), rates.HostDRAM)
		m.AddBusy("pcie", power.DataMove, d.link.Busy(), rates.PCIe)
	}
	r.Energy = m.Breakdown()
	r.ByComponent = m.ByComponent()
}

// buildSeries produces the Fig. 15 functional-unit and power traces.
func (d *Device) buildSeries(r *stats.Result) {
	bin := d.Cfg.SeriesBin
	fu := power.NewSeries(bin)
	pw := power.NewSeries(bin)
	rates := d.Cfg.Rates

	base := float64(d.Cfg.LWPs) * rates.LWPIdle
	if d.Cfg.System.IsFlashAbacus() {
		base = float64(d.workers)*rates.LWPIdle + 2*rates.LWPActive
	} else {
		base += rates.HostCPUIdle
	}
	pw.AddSpan(0, r.Makespan, base)

	for _, sp := range d.spans {
		fu.AddSpan(sp.start, sp.end, sp.fus)
		pw.AddSpan(sp.start, sp.end, sp.fus/float64(d.Cfg.CostModel.IssueWidth())*rates.LWPActive*8)
		if sp.ioWatts > 0 && sp.ioEnd > sp.ioStart {
			pw.AddSpan(sp.ioStart, sp.ioEnd, sp.ioWatts)
		}
	}
	r.FU, r.Power = fu, pw
}
