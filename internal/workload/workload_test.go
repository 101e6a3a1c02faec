package workload

import (
	"testing"

	"repro/internal/kdt"
	"repro/internal/units"
)

func TestTable2RowsPresent(t *testing.T) {
	names := Names()
	if len(names) != 14 {
		t.Fatalf("Table 2 has %d applications, want 14", len(names))
	}
	want := map[string]struct {
		mblk, serial int
		inMB         int64
	}{
		"ATAX": {2, 1, 640}, "BICG": {2, 1, 640}, "2DCON": {1, 0, 640},
		"MVT": {1, 0, 640}, "ADI": {3, 1, 1920}, "FDTD": {3, 1, 1920},
		"GESUM": {1, 0, 640}, "SYRK": {1, 0, 1280}, "3MM": {3, 1, 2560},
		"COVAR": {3, 1, 640}, "GEMM": {1, 0, 192}, "2MM": {2, 1, 2560},
		"SYR2K": {1, 0, 1280}, "CORR": {4, 1, 640},
	}
	for name, w := range want {
		s, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if s.MBlocks != w.mblk || s.SerialMB != w.serial || s.InputMB != w.inMB {
			t.Errorf("%s = {%d,%d,%d}, want {%d,%d,%d}",
				name, s.MBlocks, s.SerialMB, s.InputMB, w.mblk, w.serial, w.inMB)
		}
	}
}

func TestDataIntensiveSplitMatchesFig10(t *testing.T) {
	data := map[string]bool{"ATAX": true, "BICG": true, "2DCON": true, "MVT": true,
		"GESUM": true, "ADI": true, "FDTD": true}
	for _, s := range Specs() {
		if got := s.DataIntensive(); got != data[s.Name] {
			t.Errorf("%s data-intensive = %v, want %v", s.Name, got, data[s.Name])
		}
	}
}

func TestInstructionsFromBKI(t *testing.T) {
	s, _ := Lookup("ATAX")
	// 640 MB at 68.86 B/KI ≈ 9.75e9 instructions.
	got := s.Instructions()
	if got < 9e9 || got > 11e9 {
		t.Errorf("ATAX instructions = %d, want ~9.7e9", got)
	}
}

func TestMixTableInvariants(t *testing.T) {
	// Every mix has exactly six distinct members; per-application counts
	// match the dot counts recoverable from Table 2.
	counts := map[string]int{}
	for n := 1; n <= MixCount; n++ {
		members, err := MixMembers(n)
		if err != nil {
			t.Fatal(err)
		}
		if len(members) != 6 {
			t.Errorf("MX%d has %d members, want 6", n, len(members))
		}
		seen := map[string]bool{}
		for _, m := range members {
			if seen[m] {
				t.Errorf("MX%d repeats %s", n, m)
			}
			seen[m] = true
			if _, err := Lookup(m); err != nil {
				t.Errorf("MX%d references unknown %s", n, m)
			}
			counts[m]++
		}
	}
	wantCounts := map[string]int{
		"ATAX": 4, "BICG": 4, "2DCON": 5, "MVT": 9, "ADI": 9, "FDTD": 8,
		"GESUM": 8, "SYRK": 5, "3MM": 4, "COVAR": 5, "GEMM": 8, "2MM": 7,
		"SYR2K": 4, "CORR": 4,
	}
	for name, want := range wantCounts {
		if counts[name] != want {
			t.Errorf("%s appears in %d mixes, want %d", name, counts[name], want)
		}
	}
}

func TestMixMembersBounds(t *testing.T) {
	if _, err := MixMembers(0); err == nil {
		t.Error("MX0 accepted")
	}
	if _, err := MixMembers(15); err == nil {
		t.Error("MX15 accepted")
	}
}

func TestMX1MatchesFig12b(t *testing.T) {
	members, _ := MixMembers(1)
	// Fig. 12b: the first four kernels of MX1 are data-intensive, the last
	// two computation-intensive.
	for i, m := range members {
		s, _ := Lookup(m)
		if i < 4 && !s.DataIntensive() {
			t.Errorf("MX1 member %d (%s) should be data-intensive", i, m)
		}
		if i >= 4 && s.DataIntensive() {
			t.Errorf("MX1 member %d (%s) should be compute-intensive", i, m)
		}
	}
}

func TestHomogeneousShape(t *testing.T) {
	o := DefaultOptions()
	o.Scale = 64
	b, err := Homogeneous("ATAX", o)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Apps) != 3 {
		t.Errorf("apps = %d, want 3", len(b.Apps))
	}
	total := 0
	for _, a := range b.Apps {
		total += len(a.Tables)
	}
	if total != 6 {
		t.Errorf("instances = %d, want 6", total)
	}
	if len(b.Populate) != 1 {
		t.Errorf("populate ranges = %d, want 1 (instances share input)", len(b.Populate))
	}
	if b.Bytes <= 0 {
		t.Error("no read bytes")
	}
}

func TestSynthesizedTablesValidateAndMatchSpec(t *testing.T) {
	o := DefaultOptions()
	o.Scale = 64
	for _, name := range append(Names(), BigdataNames()...) {
		b, err := Homogeneous(name, o)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		s, _ := Lookup(name)
		tab := b.Apps[0].Tables[0]
		if err := tab.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if len(tab.Microblocks) != s.MBlocks {
			t.Errorf("%s: %d microblocks, want %d", name, len(tab.Microblocks), s.MBlocks)
		}
		serial := 0
		for _, mb := range tab.Microblocks {
			if mb.Serial() {
				serial++
			}
		}
		if serial != s.SerialMB {
			t.Errorf("%s: %d serial microblocks, want %d", name, serial, s.SerialMB)
		}
		// Encode/decode round trip must hold for synthesized tables.
		blob, err := tab.Encode()
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		if _, err := kdt.Decode(blob); err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
	}
}

func TestScaleDividesInput(t *testing.T) {
	big, _ := Homogeneous("ATAX", Options{Scale: 1, ScreensPerMB: 8})
	small, _ := Homogeneous("ATAX", Options{Scale: 64, ScreensPerMB: 8})
	if small.Bytes*32 > big.Bytes {
		t.Errorf("scale 64 bytes %d not well below scale 1 bytes %d", small.Bytes, big.Bytes)
	}
}

func TestMixBundleShape(t *testing.T) {
	o := DefaultOptions()
	o.Scale = 64
	b, err := Mix(1, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Apps) != 6 {
		t.Errorf("apps = %d, want 6", len(b.Apps))
	}
	for _, a := range b.Apps {
		if len(a.Tables) != 4 {
			t.Errorf("%s instances = %d, want 4", a.Name, len(a.Tables))
		}
	}
	if len(b.Populate) != 6 {
		t.Errorf("populate ranges = %d, want 6", len(b.Populate))
	}
}

func TestPopulateRangesAreGroupAlignedAndDisjoint(t *testing.T) {
	o := DefaultOptions()
	o.Scale = 16
	for n := 1; n <= MixCount; n++ {
		b, err := Mix(n, o)
		if err != nil {
			t.Fatal(err)
		}
		var prevEnd int64
		for _, r := range b.Populate {
			if r.Addr%groupSize != 0 {
				t.Errorf("MX%d: input at %d not group aligned", n, r.Addr)
			}
			if r.Addr < prevEnd {
				t.Errorf("MX%d: overlapping input regions", n)
			}
			prevEnd = r.Addr + r.Bytes
		}
	}
}

func TestFullScaleMixFitsLogicalSpace(t *testing.T) {
	// The largest mix at paper scale must fit the 32 GB backbone's logical
	// space (inputs shared across instances; outputs above 24 GB).
	for n := 1; n <= MixCount; n++ {
		b, err := Mix(n, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		var inputs int64
		for _, r := range b.Populate {
			inputs += r.Bytes
		}
		if inputs > 20*units.GB {
			t.Errorf("MX%d inputs = %s exceed the input region", n, units.FormatBytes(inputs))
		}
	}
}

func TestSensitivitySerialFraction(t *testing.T) {
	b, nominal, err := Sensitivity(30, 8, Options{Scale: 8})
	if err != nil {
		t.Fatal(err)
	}
	if nominal <= 0 {
		t.Error("no nominal bytes")
	}
	tab := b.Apps[0].Tables[0]
	var serialInstr, totalInstr int64
	for _, mb := range tab.Microblocks {
		for _, s := range mb.Screens {
			for _, op := range s.Ops {
				if op.Kind == kdt.OpCompute {
					totalInstr += op.Instr
					if mb.Serial() {
						serialInstr += op.Instr
					}
				}
			}
		}
	}
	frac := float64(serialInstr) / float64(totalInstr)
	if frac < 0.25 || frac > 0.35 {
		t.Errorf("serial instruction fraction = %.2f, want ~0.30", frac)
	}
}

func TestSensitivityEdges(t *testing.T) {
	if _, _, err := Sensitivity(-1, 8, DefaultOptions()); err == nil {
		t.Error("negative serial accepted")
	}
	if _, _, err := Sensitivity(101, 8, DefaultOptions()); err == nil {
		t.Error("over-100 serial accepted")
	}
	if _, _, err := Sensitivity(50, 0, DefaultOptions()); err == nil {
		t.Error("zero screens accepted")
	}
	// Pure extremes still build valid tables.
	for _, pct := range []int{0, 100} {
		b, _, err := Sensitivity(pct, 4, Options{Scale: 16})
		if err != nil {
			t.Fatalf("serial %d%%: %v", pct, err)
		}
		if err := b.Apps[0].Tables[0].Validate(); err != nil {
			t.Errorf("serial %d%%: %v", pct, err)
		}
	}
}

func TestOptionsValidation(t *testing.T) {
	if _, err := Homogeneous("ATAX", Options{Scale: 1, ScreensPerMB: 100}); err == nil {
		t.Error("absurd screen count accepted")
	}
	for _, scale := range []int64{0, -4} {
		if _, err := Homogeneous("ATAX", Options{Scale: scale, ScreensPerMB: 8}); err == nil {
			t.Errorf("scale %d accepted", scale)
		}
	}
	if _, err := Homogeneous("NOPE", DefaultOptions()); err == nil {
		t.Error("unknown app accepted")
	}
}
