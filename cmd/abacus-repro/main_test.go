package main

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/core"
)

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
