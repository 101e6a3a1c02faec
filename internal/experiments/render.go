// Experiment registry and render orchestration.
//
// Historically cmd/abacus-repro owned the list of experiments and the
// logic that renders a selection of them to a stream; the serving layer
// (internal/service) needs the exact same bytes per experiment id, so
// both now share this one implementation. The contract every consumer
// relies on: a selection renders byte-identically at any Workers count,
// and the bytes for one experiment id are the same whether it renders
// alone or as part of "all" — which is what lets the service pin its
// responses against the CLI's committed golden files.
package experiments

import (
	"context"
	"fmt"
	"io"
	"strings"
	"sync"

	"repro/internal/report"
	"repro/internal/runner"
)

// Experiment couples an experiment id with the renderer producing exactly
// the bytes the reproduction prints for it, so renders can run as runner
// jobs and still be emitted in listing order.
type Experiment struct {
	ID     string
	Render func(ctx context.Context, s *Suite) (string, error)
}

// table adapts the common render-one-table case.
func table(t *report.Table, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return t.String() + "\n", nil
}

// List returns every experiment in the paper's presentation order — the
// order "all" prints.
func List() []Experiment {
	return []Experiment{
		{"t1", func(context.Context, *Suite) (string, error) {
			return table(Table1(), nil)
		}},
		{"t2", func(context.Context, *Suite) (string, error) {
			return table(Table2(), nil)
		}},
		{"mixes", func(context.Context, *Suite) (string, error) {
			return table(TableMixes(), nil)
		}},
		{"fig3b", func(ctx context.Context, s *Suite) (string, error) {
			p, err := s.Fig3Points(ctx)
			if err != nil {
				return "", err
			}
			return table(Fig3bTable(p), nil)
		}},
		{"fig3c", func(ctx context.Context, s *Suite) (string, error) {
			p, err := s.Fig3Points(ctx)
			if err != nil {
				return "", err
			}
			return table(Fig3cTable(p), nil)
		}},
		{"fig3d", func(ctx context.Context, s *Suite) (string, error) { return table(s.Fig3d(ctx)) }},
		{"fig3e", func(ctx context.Context, s *Suite) (string, error) { return table(s.Fig3e(ctx)) }},
		{"fig10a", func(ctx context.Context, s *Suite) (string, error) { return table(s.Fig10a(ctx)) }},
		{"fig10b", func(ctx context.Context, s *Suite) (string, error) { return table(s.Fig10b(ctx)) }},
		{"fig11a", func(ctx context.Context, s *Suite) (string, error) { return table(s.Fig11a(ctx)) }},
		{"fig11b", func(ctx context.Context, s *Suite) (string, error) { return table(s.Fig11b(ctx)) }},
		{"fig12", func(ctx context.Context, s *Suite) (string, error) { return table(s.Fig12(ctx)) }},
		{"fig13a", func(ctx context.Context, s *Suite) (string, error) { return table(s.Fig13a(ctx)) }},
		{"fig13b", func(ctx context.Context, s *Suite) (string, error) { return table(s.Fig13b(ctx)) }},
		{"fig14a", func(ctx context.Context, s *Suite) (string, error) { return table(s.Fig14a(ctx)) }},
		{"fig14b", func(ctx context.Context, s *Suite) (string, error) { return table(s.Fig14b(ctx)) }},
		{"fig15", func(ctx context.Context, s *Suite) (string, error) {
			res, err := s.Fig15(ctx)
			if err != nil {
				return "", err
			}
			var b strings.Builder
			for _, name := range []string{"SIMD", "IntraO3"} {
				r := res[name]
				stride := r.FU.Len()/24 + 1
				fmt.Fprintln(&b, report.Series("Fig 15a: FU utilization, "+name,
					int64(r.FU.Bin), r.FU.Sample(stride), stride))
				fmt.Fprintln(&b, report.Series("Fig 15b: power (W), "+name,
					int64(r.Power.Bin), r.Power.Sample(stride), stride))
			}
			return b.String(), nil
		}},
		{"fig16a", func(ctx context.Context, s *Suite) (string, error) { return table(s.Fig16a(ctx)) }},
		{"fig16b", func(ctx context.Context, s *Suite) (string, error) { return table(s.Fig16b(ctx)) }},
		{"cluster", func(ctx context.Context, s *Suite) (string, error) { return s.Cluster(ctx) }},
		{"topology", func(ctx context.Context, s *Suite) (string, error) { return s.Topology(ctx) }},
		{"faults", func(ctx context.Context, s *Suite) (string, error) { return s.Faults(ctx) }},
	}
}

// IDs returns the experiment ids in presentation order.
func IDs() []string {
	var out []string
	for _, e := range List() {
		out = append(out, e.ID)
	}
	return out
}

// simFree marks the experiments renderable without any device runs; a
// render prints them immediately, before the (possibly minutes-long)
// cache fill the simulation-backed experiments need.
var simFree = map[string]bool{"t1": true, "t2": true, "mixes": true}

// Select resolves an experiment selection. id "all" expands to the full
// presentation-order list with the scale-out studies opt-in — cluster
// only when devices > 1, topology and faults only when their flags are
// set — so a plain full run prints exactly the single-device evaluation.
// Any other id selects exactly that experiment, opted in or not.
func Select(id string, devices int, topology, faults bool) ([]Experiment, error) {
	all := List()
	if id != "all" {
		for _, e := range all {
			if e.ID == id {
				return []Experiment{e}, nil
			}
		}
		return nil, fmt.Errorf("unknown experiment %q (valid: %s, all)", id, strings.Join(IDs(), " "))
	}
	var sel []Experiment
	for _, e := range all {
		if e.ID == "cluster" && devices == 1 {
			continue
		}
		if e.ID == "topology" && !topology {
			continue
		}
		if e.ID == "faults" && !faults {
			continue
		}
		sel = append(sel, e)
	}
	return sel, nil
}

// Render renders the selected experiments to w in selection order. The
// suite's Workers bounds the parallelism; whatever the bound, the bytes
// written are identical to a fully sequential (Workers == 1) render —
// the property the CLI's golden files and the service's golden
// equivalence suite both pin.
func (s *Suite) Render(ctx context.Context, w io.Writer, sel []Experiment) error {
	// The leading simulation-free tables print immediately — a paper-scale
	// cache fill below can run for minutes and t1/t2/mixes need no device
	// runs to render.
	for len(sel) > 0 && simFree[sel[0].ID] {
		out, err := sel[0].Render(ctx, s)
		if err != nil {
			return fmt.Errorf("%s: %w", sel[0].ID, err)
		}
		fmt.Fprint(w, out)
		sel = sel[1:]
	}

	// With parallelism, fill the shared result cache first: the cells of
	// every selected experiment are independent simulations, so this is
	// where the cores get used, and rendering afterwards is mostly cache
	// reads. A failed cell does not stop the fill (its error stays cached
	// and the owning experiment's render re-surfaces it under its id), so
	// every table before the affected experiment still prints — the same
	// stream a sequential run leaves behind. At Workers == 1 the fill adds
	// nothing: skip it and let the renders below simulate on demand,
	// streaming each table as it completes, exactly like the original
	// sequential harness.
	if s.Workers != 1 {
		// Every device run of every selected experiment — including the
		// Fig. 3 sweep and the Fig. 15 series, which are ordinary cells —
		// is in this one job list, so the pool stays saturated with no
		// serialized warm phases between experiment families.
		var selIDs []string
		for _, e := range sel {
			selIDs = append(selIDs, e.ID)
		}
		if err := s.Prewarm(ctx, s.CellsFor(selIDs)); err != nil && runner.IsCancellation(err) {
			return err
		}
	}

	// Render the experiments as runner jobs. Output is keyed by job index
	// and each table prints as soon as every table before it is done, so
	// the stream is byte-identical to a sequential run no matter which
	// render finishes first — and a late failure still leaves the
	// completed prefix on w.
	var (
		mu      sync.Mutex
		outs    = make([]string, len(sel))
		done    = make([]bool, len(sel))
		printed int
	)
	return runner.New(s.Workers).Each(ctx, len(sel), func(ctx context.Context, i int) error {
		out, err := sel[i].Render(ctx, s)
		if err != nil {
			return fmt.Errorf("%s: %w", sel[i].ID, err)
		}
		mu.Lock()
		outs[i], done[i] = out, true
		for printed < len(sel) && done[printed] {
			fmt.Fprint(w, outs[printed])
			outs[printed] = ""
			printed++
		}
		mu.Unlock()
		return nil
	})
}
