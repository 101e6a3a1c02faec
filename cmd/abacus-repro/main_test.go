package main

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
)

// TestExperimentRegistriesAgree pins the three id registries to each
// other: every cached-cell id must name a real experiment, and every
// experiment whose device runs flow through the Suite cache must appear
// in CachedExperimentIDs — otherwise Prewarm, the engine benchmarks, and
// the determinism tests silently skip its cells.
func TestExperimentRegistriesAgree(t *testing.T) {
	known := map[string]bool{}
	for _, id := range ids() {
		known[id] = true
	}
	cached := map[string]bool{}
	for _, id := range experiments.CachedExperimentIDs {
		cached[id] = true
		if !known[id] {
			t.Errorf("CachedExperimentIDs lists %q, which is not an experiment id", id)
		}
	}
	for _, id := range ids() {
		if hasCells := experiments.Cells(id) != nil; hasCells != cached[id] {
			t.Errorf("experiment %q: uses cache=%v but in CachedExperimentIDs=%v — registries drifted",
				id, hasCells, cached[id])
		}
	}
}

// TestRunRejectsOutOfRange: -scale below 1 and -devices outside
// [1,MaxDevices] fail the run instead of rendering some other scale's or
// device count's bytes.
func TestRunRejectsOutOfRange(t *testing.T) {
	for _, rc := range []runConfig{
		{scale: 0, exp: "t1", devices: 1},
		{scale: -4, exp: "t1", devices: 1},
		{scale: 16, exp: "t1", devices: 0},
		{scale: 16, exp: "t1", devices: core.MaxDevices + 1},
	} {
		var out bytes.Buffer
		if err := run(context.Background(), &out, rc); err == nil {
			t.Errorf("scale %d devices %d: run succeeded", rc.scale, rc.devices)
		} else if out.Len() != 0 {
			t.Errorf("scale %d devices %d: rejected run printed %d bytes", rc.scale, rc.devices, out.Len())
		}
	}
}
