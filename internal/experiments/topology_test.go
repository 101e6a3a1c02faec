package experiments

import (
	"context"
	"strings"
	"testing"

	"repro/internal/cluster"
)

func TestTopologyCellsShape(t *testing.T) {
	cells := cellsOf("topology")
	if cells == nil {
		t.Fatal("topology experiment has no cells")
	}
	want := len(TopologyPresets) * len(TopologyCards) * len(cluster.Policies)
	if len(cells) != want {
		t.Errorf("%d topology cells, want %d", len(cells), want)
	}
	seen := map[Job]bool{}
	for _, j := range cells {
		if j.Kind != KindTopology {
			t.Errorf("cell %s has kind %d", j, j.Kind)
		}
		if j.Topo == "" || j.Devices < 2 {
			t.Errorf("cell %s lacks a preset or a card count", j)
		}
		if seen[j] {
			t.Errorf("duplicate cell %s", j)
		}
		seen[j] = true
		if s := j.String(); !strings.Contains(s, "topo-") || !strings.Contains(s, j.Topo) {
			t.Errorf("job string %q does not name the topology", s)
		}
	}
}

// The acceptance property of the heterogeneous sweep: at the default
// -scale 16, the two-switch skewed topology reports monotonically
// non-decreasing aggregate throughput as total cards are added, for both
// dispatch policies.
func TestTopologyScalingMonotonicAtDefaultScale(t *testing.T) {
	s := NewSuite(16)
	ctx := context.Background()
	if err := s.Prewarm(ctx, s.CellsFor([]string{"topology"})); err != nil {
		t.Fatal(err)
	}
	for _, p := range cluster.Policies {
		prev := 0.0
		for _, n := range TopologyCards {
			r, err := s.Run(ctx, Job{
				Kind: KindTopology, Mix: TopologyMix, Sys: ClusterSys,
				Topo: "2sw-skew", Devices: n, Policy: p,
			})
			if err != nil {
				t.Fatal(err)
			}
			if tput := r.ThroughputMBps(); tput < prev {
				t.Errorf("2sw-skew %s: throughput dropped from %.1f to %.1f MB/s at %d cards",
					p, prev, tput, n)
			} else {
				prev = tput
			}
		}
	}
}

func TestTopologyRenderAndCache(t *testing.T) {
	s := NewSuite(256)
	out, err := s.Topology(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Topology scaling", "per-switch utilization",
		"sym", "skew", "2sw-skew", "round-robin", "work-steal", "sw0", "sw1"} {
		if !strings.Contains(out, want) {
			t.Errorf("topology render lacks %q", want)
		}
	}
	// A second render is pure cache assembly and must be identical.
	again, err := s.Topology(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if out != again {
		t.Error("topology render not deterministic across cache hits")
	}
}

// A topology cell must reject an unknown preset rather than simulate.
func TestTopologyCellUnknownPreset(t *testing.T) {
	s := NewSuite(256)
	_, err := s.Run(context.Background(), Job{
		Kind: KindTopology, Mix: 1, Sys: ClusterSys, Topo: "nope", Devices: 4,
	})
	if err == nil || !strings.Contains(err.Error(), "nope") {
		t.Errorf("unknown preset error %v does not name the preset", err)
	}
}
