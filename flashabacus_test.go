package flashabacus

import (
	"context"
	"errors"
	"testing"
)

func TestQuickstartPath(t *testing.T) {
	b, err := Polybench("ATAX", 128)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Run(context.Background(), IntraO3, b)
	if err != nil {
		t.Fatal(err)
	}
	if r.ThroughputMBps() <= 0 || r.Makespan <= 0 {
		t.Errorf("degenerate result: %s", r)
	}
}

func TestAllSystemsRunMix(t *testing.T) {
	for _, sys := range Systems {
		b, err := Mix(1, 256)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Run(context.Background(), sys, b); err != nil {
			t.Errorf("%v: %v", sys, err)
		}
	}
}

func TestBigdataFacade(t *testing.T) {
	for _, name := range BigdataNames() {
		b, err := Bigdata(name, 256)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Run(context.Background(), InterDy, b); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestSeriesFacade(t *testing.T) {
	b, _ := Polybench("GEMM", 64)
	r, err := RunWithSeries(context.Background(), IntraO3, b)
	if err != nil {
		t.Fatal(err)
	}
	if r.FU.Len() == 0 {
		t.Error("no series collected")
	}
}

func TestRunCancelled(t *testing.T) {
	b, err := Polybench("ATAX", 256)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, IntraO3, b); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestBadWorkloadNames(t *testing.T) {
	if _, err := Polybench("NOPE", 1); err == nil {
		t.Error("unknown polybench accepted")
	}
	if _, err := Mix(99, 1); err == nil {
		t.Error("unknown mix accepted")
	}
	if _, err := Bigdata("NOPE", 1); err == nil {
		t.Error("unknown bigdata accepted")
	}
}

// The two homogeneous constructors are family-scoped: each must reject the
// other family's application names even though both synthesize through
// workload.Homogeneous.
func TestFamilyValidation(t *testing.T) {
	for _, name := range BigdataNames() {
		if _, err := Polybench(name, 1); err == nil {
			t.Errorf("Polybench accepted bigdata application %q", name)
		}
	}
	for _, name := range PolybenchNames() {
		if _, err := Bigdata(name, 1); err == nil {
			t.Errorf("Bigdata accepted PolyBench application %q", name)
		}
	}
	for _, name := range PolybenchNames() {
		if _, err := Polybench(name, 256); err != nil {
			t.Errorf("Polybench rejected its own application %q: %v", name, err)
		}
	}
	for _, name := range BigdataNames() {
		if _, err := Bigdata(name, 256); err != nil {
			t.Errorf("Bigdata rejected its own application %q: %v", name, err)
		}
	}
}

func TestRunClusterFacade(t *testing.T) {
	single, err := Run(context.Background(), IntraO3, mustMix(t))
	if err != nil {
		t.Fatal(err)
	}
	one, err := RunCluster(context.Background(), IntraO3, 1, WorkSteal, mustMix(t))
	if err != nil {
		t.Fatal(err)
	}
	if one.Makespan != single.Makespan || one.Bytes != single.Bytes {
		t.Errorf("devices=1 cluster differs from Run: %s vs %s", one, single)
	}
	neg, err := RunCluster(context.Background(), IntraO3, -3, RoundRobin, mustMix(t))
	if err != nil {
		t.Fatalf("devices<=0 should take the single-device path: %v", err)
	}
	if neg.Makespan != single.Makespan {
		t.Errorf("devices=-3 cluster differs from Run: %s vs %s", neg, single)
	}
	for _, policy := range []Policy{RoundRobin, WorkSteal} {
		r, err := RunCluster(context.Background(), IntraO3, 4, policy, mustMix(t))
		if err != nil {
			t.Fatal(err)
		}
		if r.ThroughputMBps() < single.ThroughputMBps() {
			t.Errorf("4-card %v throughput %.1f below single-card %.1f",
				policy, r.ThroughputMBps(), single.ThroughputMBps())
		}
	}
}

func TestRunClusterCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunCluster(ctx, IntraO3, 4, RoundRobin, mustMix(t)); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func mustMix(t *testing.T) *Bundle {
	t.Helper()
	b, err := Mix(1, 256)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestRunTopologyFacade(t *testing.T) {
	topo, err := TopologyPreset("2sw-skew", 4)
	if err != nil {
		t.Fatal(err)
	}
	r, err := RunTopology(context.Background(), IntraO3, topo, WorkSteal, mustMix(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.SwitchUtils) != 2 {
		t.Fatalf("%d switch rows, want 2", len(r.SwitchUtils))
	}
	// WithTopology through RunCluster is the same dispatch; the devices
	// argument is ignored in favour of the topology's own card count.
	viaOpts, err := RunCluster(context.Background(), IntraO3, 1, WorkSteal, mustMix(t), WithTopology(topo))
	if err != nil {
		t.Fatal(err)
	}
	if viaOpts.String() != r.String() {
		t.Errorf("WithTopology differs from RunTopology:\n %s\n %s", viaOpts, r)
	}

	custom := Topology{Switches: []Switch{
		{Name: "fast", Cards: []CardSkew{{}, {}}},
		{Name: "lean", Cards: []CardSkew{{Channels: 2, LWPs: 6}}},
	}}
	if _, err := RunTopology(context.Background(), IntraO3, custom, RoundRobin, mustMix(t)); err != nil {
		t.Fatalf("custom topology: %v", err)
	}

	bad := Topology{Switches: []Switch{{Cards: []CardSkew{{Channels: 5}}}}}
	if _, err := RunTopology(context.Background(), IntraO3, bad, RoundRobin, mustMix(t)); err == nil {
		t.Error("non-pow2 skew accepted through the facade")
	}
	if _, err := TopologyPreset("bogus", 4); err == nil {
		t.Error("unknown preset accepted")
	}
}
