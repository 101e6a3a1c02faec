// Experiment registry and render orchestration.
//
// Every experiment is one record in List: its id, whether "all" opts it
// in, the cells it reads and its render. Two consumers rely on this
// contract: the CLI (cmd/abacus-repro) and the serving layer
// (internal/service). A selection renders byte-identically at any
// Workers count. One experiment's bytes are the same whether it renders
// alone or as part of "all", which is what lets the service pin its
// responses against the CLI's committed golden files. And a render reads
// only the cells its record lists: any other lookup is an error, never a
// simulation.
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

// Experiment is one table or figure of the reproduction: its id, the
// cached device runs it reads, and the renderer producing exactly the
// bytes the reproduction prints for it. Renders run as runner jobs and
// are still emitted in listing order.
type Experiment struct {
	ID string
	// OptIn, when set, reports whether "all" includes the experiment for
	// a device count and the topology and faults flags. Nil means always.
	OptIn func(devices int, topology, faults bool) bool
	// Cells lists the cells Render reads, in the order it reads them. Nil
	// means the experiment needs no device runs.
	Cells func(*Suite) []Job
	// Render renders the experiment, in the shape of a Suite method
	// expression. (*Suite).Render passes it a view of the suite that
	// holds only the listed cells, already run.
	Render func(s *Suite, ctx context.Context) (string, error)
}

// cells returns the jobs e lists on s.
func (e Experiment) cells(s *Suite) []Job {
	if e.Cells == nil {
		return nil
	}
	return e.Cells(s)
}

// render runs e's cells on s, then renders e against the view holding
// them. Errors carry e's id.
func (e Experiment) render(ctx context.Context, s *Suite) (string, error) {
	v, err := s.view(ctx, e.ID, e.cells(s))
	var out string
	if err == nil {
		out, err = e.Render(v, ctx)
	}
	if err != nil {
		return "", fmt.Errorf("%s: %w", e.ID, err)
	}
	return out, nil
}

// table adapts the common render-one-table case.
func table(t *report.Table, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return t.String() + "\n", nil
}

// tableOf adapts a Suite figure method to a Render.
func tableOf(fig func(*Suite, context.Context) (*report.Table, error)) func(*Suite, context.Context) (string, error) {
	return func(s *Suite, ctx context.Context) (string, error) { return table(fig(s, ctx)) }
}

// fig3Render renders one table of the Fig. 3 sensitivity sweep.
func fig3Render(render func([]Fig3Point) *report.Table) func(*Suite, context.Context) (string, error) {
	return func(s *Suite, ctx context.Context) (string, error) {
		p, err := s.Fig3Points(ctx)
		if err != nil {
			return "", err
		}
		return table(render(p), nil)
	}
}

// staticTable renders a table that needs no device runs.
func staticTable(t func() *report.Table) func(*Suite, context.Context) (string, error) {
	return func(*Suite, context.Context) (string, error) { return table(t(), nil) }
}

// List returns every experiment in the paper's presentation order — the
// order "all" prints.
func List() []Experiment {
	return []Experiment{
		{ID: "t1", Render: staticTable(Table1)},
		{ID: "t2", Render: staticTable(Table2)},
		{ID: "mixes", Render: staticTable(TableMixes)},
		{ID: "fig3b", Cells: sensitivityCells, Render: fig3Render(Fig3bTable)},
		{ID: "fig3c", Cells: sensitivityCells, Render: fig3Render(Fig3cTable)},
		{ID: "fig3d", Cells: fig3Cells, Render: tableOf((*Suite).Fig3d)},
		{ID: "fig3e", Cells: fig3Cells, Render: tableOf((*Suite).Fig3e)},
		{ID: "fig10a", Cells: homogCells, Render: tableOf((*Suite).Fig10a)},
		{ID: "fig10b", Cells: mixCells, Render: tableOf((*Suite).Fig10b)},
		{ID: "fig11a", Cells: homogCells, Render: tableOf((*Suite).Fig11a)},
		{ID: "fig11b", Cells: mixCells, Render: tableOf((*Suite).Fig11b)},
		{ID: "fig12", Cells: fig12Cells, Render: tableOf((*Suite).Fig12)},
		{ID: "fig13a", Cells: homogCells, Render: tableOf((*Suite).Fig13a)},
		{ID: "fig13b", Cells: mixCells, Render: tableOf((*Suite).Fig13b)},
		{ID: "fig14a", Cells: homogCells, Render: tableOf((*Suite).Fig14a)},
		{ID: "fig14b", Cells: mixCells, Render: tableOf((*Suite).Fig14b)},
		{ID: "fig15", Cells: seriesCells, Render: func(s *Suite, ctx context.Context) (string, error) {
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
		{ID: "fig16a", Cells: bigdataCells, Render: tableOf((*Suite).Fig16a)},
		{ID: "fig16b", Cells: bigdataCells, Render: tableOf((*Suite).Fig16b)},
		{ID: "cluster", Cells: clusterCells, Render: (*Suite).Cluster,
			OptIn: func(devices int, _, _ bool) bool { return devices > 1 }},
		{ID: "topology", Cells: topologyCells, Render: (*Suite).Topology,
			OptIn: func(_ int, topology, _ bool) bool { return topology }},
		{ID: "faults", Cells: faultCells, Render: (*Suite).Faults,
			OptIn: func(_ int, _, faults bool) bool { return faults }},
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

// Select resolves an experiment selection. id "all" expands to the full
// presentation-order list with the scale-out studies opt-in — cluster
// only when devices > 1, topology and faults only when their flags are
// set — so a plain full run prints exactly the single-device evaluation.
// Any other id selects exactly that experiment, opted in or not.
func Select(id string, devices int, topology, faults bool) ([]Experiment, error) {
	var sel []Experiment
	for _, e := range List() {
		switch {
		case e.ID == id:
			return []Experiment{e}, nil
		case id == "all" && (e.OptIn == nil || e.OptIn(devices, topology, faults)):
			sel = append(sel, e)
		}
	}
	if id != "all" {
		return nil, fmt.Errorf("unknown experiment %q (valid: %s, all)", id, strings.Join(IDs(), " "))
	}
	return sel, nil
}

// CellsFor enumerates the union of cells the listed experiments read on
// s, deduplicated, preserving first-appearance order — a deterministic
// job list for Prewarm. Unknown ids list nothing.
func (s *Suite) CellsFor(ids []string) []Job {
	byID := map[string]Experiment{}
	for _, e := range List() {
		byID[e.ID] = e
	}
	seen := map[Job]bool{}
	var out []Job
	for _, id := range ids {
		for _, j := range byID[id].cells(s) {
			if !seen[j] {
				seen[j] = true
				out = append(out, j)
			}
		}
	}
	return out
}

// Render renders the selected experiments to w in selection order. The
// suite's Workers bounds the parallelism; whatever the bound, the bytes
// written are identical to a fully sequential (Workers == 1) render —
// the property the CLI's golden files and the service's golden
// equivalence suite both pin. Each experiment's listed cells are run
// before its render, and the render reads them through a view of s that
// fails any lookup of a cell the experiment did not list.
func (s *Suite) Render(ctx context.Context, w io.Writer, sel []Experiment) error {
	// The leading simulation-free tables print immediately — a paper-scale
	// cache fill below can run for minutes and they list no cells.
	for len(sel) > 0 && sel[0].Cells == nil {
		out, err := sel[0].render(ctx, s)
		if err != nil {
			return err
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
	// stream a sequential run leaves behind. At Workers == 1 each
	// experiment's view runs its own cells just before its render instead,
	// so every table streams as soon as its own cells are done.
	if s.Workers != 1 {
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
		out, err := sel[i].render(ctx, s)
		if err != nil {
			return err
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
