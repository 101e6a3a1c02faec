package experiments

import (
	"context"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
)

// cellsOf lists one experiment's cells on an uncapped suite with the
// default fault scenarios.
func cellsOf(id string) []Job { return NewSuite(16).CellsFor([]string{id}) }

func TestClusterCellsShape(t *testing.T) {
	cells := cellsOf("cluster")
	if cells == nil {
		t.Fatal("cluster experiment has no cells")
	}
	workloads := len(ClusterApps) + len(ClusterMixes)
	// devices=1 is policy-independent: one shared cell per workload, then
	// one cell per (count>1, policy).
	want := workloads * (1 + (len(ClusterDeviceCounts)-1)*len(cluster.Policies))
	if len(cells) != want {
		t.Errorf("%d cluster cells, want %d", len(cells), want)
	}
	ones := 0
	for _, j := range cells {
		if j.Kind != KindCluster {
			t.Errorf("cell %s has kind %d", j, j.Kind)
		}
		if j.Devices == 1 {
			ones++
			if j.Policy != cluster.RoundRobin {
				t.Errorf("devices=1 cell %s not policy-normalized", j)
			}
		}
	}
	if ones != workloads {
		t.Errorf("%d devices=1 cells, want %d", ones, workloads)
	}
}

func TestSuiteCellsForCapsDevices(t *testing.T) {
	s := NewSuite(256)
	s.MaxDevices = 2
	for _, j := range s.CellsFor([]string{"cluster"}) {
		if j.Devices > 2 {
			t.Errorf("cell %s exceeds the 2-device cap", j)
		}
	}
	// Non-cluster ids pass through unchanged, and an uncapped suite keeps
	// the full sweep.
	if got, want := len(s.CellsFor([]string{"fig15"})), len(cellsOf("fig15")); got != want {
		t.Errorf("fig15 cells %d, want %d", got, want)
	}
	workloads := len(ClusterApps) + len(ClusterMixes)
	if full := cellsOf("cluster"); len(full) != workloads*(1+(len(ClusterDeviceCounts)-1)*len(cluster.Policies)) {
		t.Errorf("uncapped suite filtered cluster cells: %d", len(full))
	}
}

func TestClusterJobString(t *testing.T) {
	j := Job{Kind: KindCluster, Name: "ATAX", Sys: core.IntraO3, Devices: 4, Policy: cluster.WorkSteal}
	if got := j.String(); !strings.Contains(got, "ATAX") || !strings.Contains(got, "4") {
		t.Errorf("job string %q names neither workload nor devices", got)
	}
	j = Job{Kind: KindCluster, Mix: 3, Sys: core.IntraO3, Devices: 2}
	if got := j.String(); !strings.Contains(got, "MX3") {
		t.Errorf("mix job string %q lacks MX3", got)
	}
}

// The acceptance property of the scaling study: at the default -scale 16,
// every (workload, policy) row reports monotonically non-decreasing
// aggregate throughput as cards are added.
func TestClusterScalingMonotonicAtDefaultScale(t *testing.T) {
	s := NewSuite(16)
	ctx := context.Background()
	if err := s.Prewarm(ctx, s.CellsFor([]string{"cluster"})); err != nil {
		t.Fatal(err)
	}
	for _, base := range clusterBases() {
		for _, p := range cluster.Policies {
			prev := 0.0
			for _, d := range ClusterDeviceCounts {
				j := base
				j.Devices = d
				if d > 1 {
					j.Policy = p
				}
				r, err := s.Run(ctx, j)
				if err != nil {
					t.Fatal(err)
				}
				if tput := r.ThroughputMBps(); tput < prev {
					t.Errorf("%s %s: throughput dropped from %.1f to %.1f MB/s at %d devices",
						base.workloadName(), p, prev, tput, d)
				} else {
					prev = tput
				}
			}
		}
	}
}

func TestClusterRenderAndCache(t *testing.T) {
	s := NewSuite(256)
	s.MaxDevices = 2
	out, err := s.Cluster(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Cluster scaling", "throughput", "energy", "round-robin", "work-steal", "ATAX", "MX1"} {
		if !strings.Contains(out, want) {
			t.Errorf("cluster render lacks %q", want)
		}
	}
	if strings.Contains(out, "8 dev") {
		t.Error("cluster render ignored the 2-device cap")
	}
	// A second render is pure cache assembly and must be identical.
	again, err := s.Cluster(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if out != again {
		t.Error("cluster render not deterministic across cache hits")
	}
}
