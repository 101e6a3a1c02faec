// Command abacus-repro regenerates every table and figure of the paper's
// evaluation and prints them as ASCII tables.
//
// Usage:
//
//	abacus-repro [-scale N] [-experiment id] [-jobs N] [-devices N]
//	             [-topology] [-faults PLAN] [-v] [-list]
//
// scale divides the Table 2 input sizes (1 = paper scale; the default 16
// finishes in well under a minute). jobs bounds how many independent device
// simulations run concurrently (default: one per available core); because
// results are keyed by experiment cell rather than completion order, the
// printed output is byte-identical whatever the jobs count. devices caps
// the cluster scaling experiment's card sweep; at the default 1 the
// cluster experiment is left out of 'all' and the output matches the
// single-device evaluation exactly. -topology opts the heterogeneous-
// topology sweep (multi-switch hosts, per-card geometry skew) into 'all'.
// -faults PLAN opts the fault-injection study into 'all', run under the
// named plan — a preset (cardloss, flap, wear) or a plan-file path;
// -experiment faults without -faults runs all three preset scenarios.
// -v prints image-cache statistics to stderr at exit.
// -list prints the experiment ids. A SIGINT/SIGTERM cancels the run
// cleanly.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/faults"
)

// ids lists the experiment ids in presentation order. The registry
// itself lives in internal/experiments so the serving daemon (abacusd)
// renders exactly the bytes this command prints.
func ids() []string { return experiments.IDs() }

func main() {
	scale := flag.Int64("scale", 16, "divide Table 2 input sizes by this factor (1 = paper scale)")
	exp := flag.String("experiment", "all", "experiment id or 'all' (see -list)")
	jobs := flag.Int("jobs", runtime.GOMAXPROCS(0), "max concurrent device simulations (1 = fully sequential)")
	devices := flag.Int("devices", 1, "max cards in the cluster scaling experiment (1 leaves it out of 'all')")
	topology := flag.Bool("topology", false, "include the heterogeneous-topology sweep in 'all'")
	faultPlan := flag.String("faults", "", "fault plan (preset name or plan-file path); includes the fault-injection study in 'all'")
	verbose := flag.Bool("v", false, "print image-cache statistics to stderr at exit")
	list := flag.Bool("list", false, "print the experiment ids and exit")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile to this file at exit")
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(ids(), "\n"))
		return
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "abacus-repro:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "abacus-repro:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	err := run(ctx, os.Stdout, runConfig{
		scale: *scale, exp: *exp, jobs: *jobs, devices: *devices, topology: *topology,
		faults: *faultPlan, verbose: *verbose, errw: os.Stderr,
	})
	if *memProfile != "" {
		f, merr := os.Create(*memProfile)
		if merr != nil {
			fmt.Fprintln(os.Stderr, "abacus-repro:", merr)
		} else {
			runtime.GC() // settle live objects before the heap snapshot
			if werr := pprof.WriteHeapProfile(f); werr != nil {
				fmt.Fprintln(os.Stderr, "abacus-repro:", werr)
			}
			f.Close()
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "abacus-repro:", err)
		if *cpuProfile != "" {
			pprof.StopCPUProfile()
		}
		os.Exit(1)
	}
}

// runConfig carries the flag values a run executes with. Only scale, exp,
// jobs, devices, topology, and faults shape the bytes written to w; the
// verbosity knob never touches stdout.
type runConfig struct {
	scale    int64
	exp      string
	jobs     int
	devices  int
	topology bool
	faults   string    // -faults: fault plan, preset name or file path ("" = off)
	verbose  bool      // -v: image-cache statistics at exit
	errw     io.Writer // destination for -v statistics (nil discards)
}

// resolveFaultPlan turns the -faults argument into a named scenario: a
// preset name resolves to its built-in plan, anything else is loaded as
// a plan file and named after its basename (sans extension) so the
// rendered rows read "cardloss" whether the plan came from the preset
// or from testdata/cardloss.plan.
func resolveFaultPlan(arg string) (string, *faults.Plan, error) {
	if p, err := faults.Preset(arg); err == nil {
		return arg, p, nil
	}
	p, err := faults.Load(arg)
	if err != nil {
		return "", nil, fmt.Errorf("-faults %s: not a preset (%s) and %w",
			arg, strings.Join(faults.PresetNames, ", "), err)
	}
	name := filepath.Base(arg)
	name = strings.TrimSuffix(name, filepath.Ext(name))
	return name, p, nil
}

// run renders the selected experiments to w. Everything the command prints
// on stdout flows through w, so the golden-output regression test can
// capture a full reproduction byte for byte.
func run(ctx context.Context, w io.Writer, rc runConfig) error {
	scale, exp, jobs, devices := rc.scale, rc.exp, rc.jobs, rc.devices
	if scale < 1 {
		return fmt.Errorf("-scale %d below 1", scale)
	}
	if devices < 1 || devices > core.MaxDevices {
		return fmt.Errorf("-devices %d outside [1,%d]", devices, core.MaxDevices)
	}
	// The scale-out experiments are opt-in: without -devices/-topology/
	// -faults the full run prints exactly the single-device evaluation.
	sel, err := experiments.Select(exp, devices, rc.topology, rc.faults != "")
	if err != nil {
		return err
	}

	s := experiments.NewSuite(scale)
	s.Workers = jobs
	s.MaxDevices = devices
	if rc.faults != "" {
		name, plan, err := resolveFaultPlan(rc.faults)
		if err != nil {
			return err
		}
		s.SetFaultScenarios([]experiments.FaultScenario{{Name: name, Plan: plan}})
	}
	if rc.verbose && rc.errw != nil {
		defer func() {
			st := s.ImageStats()
			fmt.Fprintf(rc.errw, "image cache: memory %d hits / %d misses / %d evicted; probes %d hits / %d misses\n",
				st.ImageHits, st.ImageMisses, st.ImageEvictions, st.ProbeHits, st.ProbeMisses)
		}()
	}

	// The render orchestration — simulation-free tables first, one shared
	// prewarm, then ordered streaming of every table — lives on the Suite
	// so abacusd serves the same bytes this command prints.
	return s.Render(ctx, w, sel)
}
