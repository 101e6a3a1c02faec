// Package sched implements the accelerator's five execution governors: the
// paper's four self-governing schedulers — static inter-kernel (InterSt),
// dynamic inter-kernel (InterDy), in-order intra-kernel (IntraIo), and
// out-of-order intra-kernel (IntraO3) — plus the conventional OpenMP-style
// SIMD executor used as the baseline (§4.1, §4.2, §5 "Accelerators").
package sched

import (
	"fmt"

	"repro/internal/kernel"
)

// Context is the device surface a scheduler drives. Dispatch hands a screen
// to a worker; the core calls Kick again on every completion or arrival.
type Context interface {
	Workers() int
	// Free reports whether worker w has no screen in flight.
	Free(w int) bool
	// Dispatch begins executing s on worker w. The screen must be pending
	// and the worker free.
	Dispatch(s *kernel.Screen, w int)
	Chain() *kernel.Chain
}

// Scheduler decides which pending screens run where. Kick must be
// idempotent: the core invokes it after every state change, and the
// scheduler dispatches as much ready work as workers allow.
type Scheduler interface {
	Name() string
	Kick(ctx Context)
}

// New returns the named scheduler. Valid names are "InterSt", "InterDy",
// "IntraIo", "IntraO3", and "SIMD".
func New(name string) (Scheduler, error) {
	switch name {
	case "InterSt":
		return &interSt{}, nil
	case "InterDy":
		return &interDy{claimed: map[int]*kernel.Kernel{}}, nil
	case "IntraIo":
		return &intra{name: "IntraIo", policy: kernel.InOrder}, nil
	case "IntraO3":
		return &intra{name: "IntraO3", policy: kernel.OutOfOrder}, nil
	case "SIMD":
		return &simd{}, nil
	default:
		return nil, fmt.Errorf("sched: unknown scheduler %q", name)
	}
}

// nextScreen returns the next pending screen of k in (microblock, screen)
// order, or nil if none is dispatchable. Inter-kernel schedulers execute a
// kernel as a single instruction stream, so at most one screen of k runs at
// a time and microblock order is automatically respected.
func nextScreen(k *kernel.Kernel) *kernel.Screen {
	for _, mb := range k.MBs {
		if mb.Done() {
			continue
		}
		for _, s := range mb.Screens {
			switch s.Status {
			case kernel.Running:
				return nil // stream busy
			case kernel.Pending:
				return s
			}
		}
		return nil // all dispatched, awaiting completion
	}
	return nil
}

// interSt statically binds every kernel of an application to LWP
// (appID mod workers), as in Fig. 5a where App0 and App2 own LWP0 and LWP2.
type interSt struct{}

func (*interSt) Name() string { return "InterSt" }

func (*interSt) Kick(ctx Context) {
	for _, a := range ctx.Chain().Apps {
		w := a.ID % ctx.Workers()
		if !ctx.Free(w) {
			continue
		}
		for _, k := range a.Kernels {
			if k.Done() {
				continue
			}
			if s := nextScreen(k); s != nil {
				ctx.Dispatch(s, w)
			}
			break // one stream per LWP; later kernels wait
		}
	}
}

// interDy hands the next queued kernel to any free LWP and keeps it there
// until it completes (Fig. 5c); the completion notification through the
// hardware queue lets Flashvisor assign the next kernel immediately.
type interDy struct {
	claimed map[int]*kernel.Kernel // worker -> kernel in flight
}

func (*interDy) Name() string { return "InterDy" }

func (d *interDy) Kick(ctx Context) {
	for w := 0; w < ctx.Workers(); w++ {
		if !ctx.Free(w) {
			continue
		}
		k := d.claimed[w]
		if k != nil && k.Done() {
			k = nil
		}
		if k == nil {
			k = d.claimNext(ctx)
			if k == nil {
				continue
			}
			d.claimed[w] = k
		}
		if s := nextScreen(k); s != nil {
			ctx.Dispatch(s, w)
		}
	}
}

func (d *interDy) claimNext(ctx Context) *kernel.Kernel {
	for _, a := range ctx.Chain().Apps {
		for _, k := range a.Kernels {
			if !k.Done() && !d.taken(k) {
				return k
			}
		}
	}
	return nil
}

// taken reports whether another worker already owns k. The claim map is at
// most one entry per worker, so a scan beats building a set on every kick.
func (d *interDy) taken(k *kernel.Kernel) bool {
	for _, c := range d.claimed {
		if c == k && !c.Done() {
			return true
		}
	}
	return false
}

// intra implements both intra-kernel schedulers: screens of ready
// microblocks spread across free LWPs. The policy decides how far ahead the
// multi-app execution chain may be mined — IntraIo stops at each app's
// oldest incomplete kernel, IntraO3 borrows screens from any microblock
// whose intra-kernel predecessor has completed (Fig. 7).
type intra struct {
	name   string
	policy kernel.Policy
	ready  []*kernel.Screen // scratch, reused between kicks
}

func (s *intra) Name() string { return s.name }

func (s *intra) Kick(ctx Context) {
	s.ready = ctx.Chain().Ready(s.policy, s.ready[:0])
	if len(s.ready) == 0 {
		return
	}
	i := 0
	for w := 0; w < ctx.Workers() && i < len(s.ready); w++ {
		if !ctx.Free(w) {
			continue
		}
		ctx.Dispatch(s.ready[i], w)
		i++
	}
}

// simd is the conventional baseline: one kernel at a time in issue order,
// its parallel microblocks split across all LWPs OpenMP-style, serial
// microblocks on a single LWP, with every byte fetched through the host.
type simd struct {
	ready []*kernel.Screen
}

func (*simd) Name() string { return "SIMD" }

func (s *simd) Kick(ctx Context) {
	var active *kernel.Kernel
outer:
	for _, a := range ctx.Chain().Apps {
		for _, k := range a.Kernels {
			if !k.Done() {
				active = k
				break outer
			}
		}
	}
	if active == nil {
		return
	}
	s.ready = s.ready[:0]
	for _, mb := range active.MBs {
		if mb.Done() {
			continue
		}
		for _, scr := range mb.Screens {
			if scr.Status == kernel.Pending {
				s.ready = append(s.ready, scr)
			}
		}
		break
	}
	i := 0
	for w := 0; w < ctx.Workers() && i < len(s.ready); w++ {
		if !ctx.Free(w) {
			continue
		}
		ctx.Dispatch(s.ready[i], w)
		i++
	}
}
