// Package workload reproduces the paper's evaluation inputs: the fourteen
// PolyBench-derived applications of Table 2 with their measured instruction
// characteristics, the fourteen heterogeneous mixes MX1–MX14, the five
// graph/bigdata applications of §5.6, and the serial-fraction sensitivity
// kernels behind Fig. 3. Each descriptor is synthesized into kernel
// description tables whose READ/COMPUTE/WRITE ops carry the measured sizes
// and mixes.
package workload

import (
	"fmt"

	"repro/internal/kdt"
	"repro/internal/units"
)

// Spec is one application's Table 2 row plus the modelling parameters the
// table does not publish (multiply fraction, output volume).
type Spec struct {
	Name     string
	Desc     string
	MBlocks  int     // microblocks per kernel
	SerialMB int     // microblocks with no screens
	InputMB  int64   // input data per instance, MB
	LdStPct  float64 // load/store instruction ratio, %
	BKI      float64 // bytes processed per kilo-instruction
	MulPct   float64 // multiply instruction ratio, % (modelled)
	OutFrac  float64 // output bytes / input bytes (modelled)
}

// DataIntensive classifies per §5.1: high-B/KI workloads move more bytes
// per instruction than the backbone can hide.
func (s Spec) DataIntensive() bool { return s.BKI >= 20 }

// InputBytes returns the instance input size.
func (s Spec) InputBytes() int64 { return s.InputMB * units.MB }

// Instructions returns the instance instruction count implied by B/KI.
func (s Spec) Instructions() int64 {
	return int64(float64(s.InputBytes()) * 1000 / s.BKI)
}

// specs is Table 2. Multiply fractions and output ratios are modelled:
// matrix products multiply-heavy, stencils lighter; outputs are vectors for
// the vector kernels and matrices for the matrix producers.
var specs = []Spec{
	{"ATAX", "Matrix Transpose & Multiplication", 2, 1, 640, 45.61, 68.86, 15, 0.02},
	{"BICG", "BiCG Sub Kernel", 2, 1, 640, 46.00, 72.30, 15, 0.02},
	{"2DCON", "2-Dimension Convolution", 1, 0, 640, 23.96, 35.59, 10, 0.50},
	{"MVT", "Matrix Vector Product & Transpose", 1, 0, 640, 45.10, 72.05, 15, 0.02},
	{"ADI", "Alternating Direction Implicit solver", 3, 1, 1920, 23.96, 35.59, 12, 0.30},
	{"FDTD", "2-D Finite Difference Time Domain", 3, 1, 1920, 27.27, 38.52, 12, 0.30},
	{"GESUM", "Scalar, Vector & Matrix Multiplication", 1, 0, 640, 48.08, 72.13, 15, 0.02},
	{"SYRK", "Symmetric rank-k operations", 1, 0, 1280, 28.21, 5.29, 25, 0.50},
	{"3MM", "3-Matrix Multiplications", 3, 1, 2560, 33.68, 2.48, 25, 0.33},
	{"COVAR", "Covariance Computation", 3, 1, 640, 34.33, 2.86, 20, 0.50},
	{"GEMM", "Matrix-Multiply", 1, 0, 192, 30.77, 5.29, 25, 0.33},
	{"2MM", "2-Matrix Multiplications", 2, 1, 2560, 33.33, 3.76, 25, 0.33},
	{"SYR2K", "Symmetric rank-2k operations", 1, 0, 1280, 30.19, 1.85, 25, 0.50},
	{"CORR", "Correlation Computation", 4, 1, 640, 33.04, 2.79, 20, 0.50},
}

// bigdata models the §5.6 graph/bigdata applications. The paper publishes
// no Table 2 row for them, only that all five are data-intensive, that bfs
// and nn contain serial microblocks, and that nw and path do not; sizes and
// mixes are modelled accordingly.
var bigdata = []Spec{
	{"bfs", "graph traversal", 3, 1, 1024, 45, 40, 5, 0.05},
	{"wc", "mapreduce wordcount", 2, 0, 1536, 40, 60, 5, 0.02},
	{"nn", "k-nearest neighbor", 2, 1, 1024, 38, 45, 10, 0.05},
	{"nw", "DNA sequence alignment", 2, 0, 1280, 42, 35, 8, 0.10},
	{"path", "grid traversal", 2, 0, 1280, 40, 50, 5, 0.05},
}

// Names returns the Table 2 application names in order.
func Names() []string {
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.Name
	}
	return out
}

// BigdataNames returns the §5.6 application names in the paper's order.
func BigdataNames() []string { return []string{"bfs", "wc", "nn", "nw", "path"} }

// Lookup returns the spec for a Table 2 or §5.6 application.
func Lookup(name string) (Spec, error) {
	for _, s := range specs {
		if s.Name == name {
			return s, nil
		}
	}
	for _, s := range bigdata {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("workload: unknown application %q", name)
}

// Specs returns a copy of Table 2.
func Specs() []Spec { return append([]Spec(nil), specs...) }

// mixes reconstructs the right half of Table 2 (typographically corrupted
// in the source): each MX combines six applications; the per-application
// membership counts match the dot counts in the table, and MX1 pairs the
// four data-intensive kernels Fig. 12b names with two compute-intensive
// ones. A unit test pins both the row counts and the six-per-column rule.
var mixes = [][]string{
	{"ATAX", "BICG", "2DCON", "MVT", "GEMM", "2MM"},   // MX1
	{"ATAX", "BICG", "MVT", "ADI", "FDTD", "GESUM"},   // MX2
	{"ATAX", "BICG", "MVT", "ADI", "SYRK", "COVAR"},   // MX3
	{"ATAX", "BICG", "MVT", "ADI", "3MM", "GEMM"},     // MX4
	{"2DCON", "MVT", "FDTD", "GESUM", "2MM", "CORR"},  // MX5
	{"2DCON", "MVT", "ADI", "GESUM", "SYRK", "GEMM"},  // MX6
	{"MVT", "ADI", "FDTD", "GESUM", "COVAR", "SYR2K"}, // MX7
	{"2DCON", "MVT", "FDTD", "GEMM", "2MM", "3MM"},    // MX8
	{"MVT", "ADI", "FDTD", "GESUM", "SYRK", "CORR"},   // MX9
	{"2DCON", "ADI", "FDTD", "GEMM", "2MM", "COVAR"},  // MX10
	{"ADI", "GESUM", "GEMM", "2MM", "SYR2K", "CORR"},  // MX11
	{"ADI", "FDTD", "GESUM", "GEMM", "2MM", "COVAR"},  // MX12
	{"FDTD", "GESUM", "SYRK", "3MM", "GEMM", "SYR2K"}, // MX13
	{"SYRK", "3MM", "COVAR", "2MM", "SYR2K", "CORR"},  // MX14
}

// MixCount is the number of heterogeneous workloads.
const MixCount = 14

// MixMembers returns the applications in MXn (1-based).
func MixMembers(n int) ([]string, error) {
	if n < 1 || n > MixCount {
		return nil, fmt.Errorf("workload: mix MX%d outside [1,%d]", n, MixCount)
	}
	return append([]string(nil), mixes[n-1]...), nil
}

// Range is a populated input region.
type Range struct {
	Addr  int64
	Bytes int64
}

// App is one offloadable application bundle.
type App struct {
	Name   string
	Tables []*kdt.Table
}

// Bundle is a ready-to-run workload: apps to offload and input ranges to
// populate beforehand.
type Bundle struct {
	Name     string
	Apps     []App
	Populate []Range
	// Bytes is the total input volume the kernels read (the throughput
	// numerator).
	Bytes int64
	// Key identifies the bundle's exact content for caching: two bundles
	// with equal non-empty keys were synthesized from the same descriptor
	// at the same options, so device images and probe results built for
	// one are valid for the other. Hand-assembled bundles leave it empty,
	// which disables cross-run caching for them.
	Key string
}

// Options tunes synthesis.
type Options struct {
	// Scale divides the Table 2 input sizes (1 = paper scale). Larger
	// scales shrink runs for tests and benches.
	Scale int64
	// ScreensPerMB is the screen count of each parallel microblock.
	ScreensPerMB int
}

// DefaultOptions returns paper-scale synthesis with 8-way screens.
func DefaultOptions() Options { return Options{Scale: 1, ScreensPerMB: 8} }

func (o Options) normalize() (Options, error) {
	if o.Scale < 1 {
		return o, fmt.Errorf("workload: scale %d below 1", o.Scale)
	}
	if o.ScreensPerMB == 0 {
		o.ScreensPerMB = 8
	}
	if o.ScreensPerMB < 1 || o.ScreensPerMB > 64 {
		return o, fmt.Errorf("workload: screens per microblock %d outside [1,64]", o.ScreensPerMB)
	}
	return o, nil
}

// groupAlign rounds a size up to the 64 KB page-group boundary so shared
// input regions never alias in the FTL.
const groupSize = 64 * units.KB

func groupAlign(n int64) int64 { return (n + groupSize - 1) / groupSize * groupSize }

// layout assigns flash addresses: inputs grow from zero, outputs from
// outputBase upward. Both regions must fit the ~29.5 GiB logical space the
// default geometry exposes after over-provisioning and GC slack.
type layout struct {
	inCursor  int64
	outCursor int64
}

// outputBase is where output regions start. The worst-case paper-scale
// bundle (MX14: four instances each of six large-output applications) packs
// ~8.8 GiB of shared inputs below it and ~14.2 GiB of outputs above it, so
// 12 GiB keeps both inside the logical space at every scale — the previous
// 24 GiB base pushed low-scale mix outputs past the logical end.
// A regression test in workload_layout_test.go pins both bounds.
const outputBase = 12 * units.GB

func newLayout() *layout { return &layout{outCursor: outputBase} }

func (l *layout) input(bytes int64) int64 {
	a := l.inCursor
	l.inCursor += groupAlign(bytes)
	return a
}

func (l *layout) output(bytes int64) int64 {
	a := l.outCursor
	l.outCursor += groupAlign(bytes)
	return a
}

// synthesize builds one kernel instance's description table. Every instance
// of an application shares the input region (the instances process the same
// dataset, which also exercises shared read locks); each instance writes its
// own output region.
func synthesize(s Spec, o Options, inAddr int64, l *layout) *kdt.Table {
	in := s.InputBytes() / o.Scale
	if in < groupSize {
		in = groupSize
	}
	instr := int64(float64(in) * 1000 / s.BKI)
	out := groupAlign(int64(float64(in) * s.OutFrac))
	if out < groupSize {
		out = groupSize
	}
	outAddr := l.output(out)

	mul := uint16(s.MulPct * 10)
	ldst := uint16(s.LdStPct * 10)
	// Serial microblocks are the short sequential prologues of each kernel
	// (Fig. 6's m0 converts a 1-D vector); they carry a minority share of
	// the instructions, with the bulk in the parallelizable stages.
	const serialShare = 0.15
	serialMBs, parMBs := int64(s.SerialMB), int64(s.MBlocks-s.SerialMB)
	serialInstr, parInstr := int64(0), instr
	serialIn, parIn := int64(0), in
	if serialMBs > 0 && parMBs > 0 {
		serialInstr = int64(float64(instr) * serialShare)
		parInstr = instr - serialInstr
		serialIn = int64(float64(in) * serialShare)
		parIn = in - serialIn
	} else if parMBs == 0 {
		serialInstr, parInstr = instr, 0
		serialIn, parIn = in, 0
	}

	tab := &kdt.Table{Name: s.Name, Sections: kdt.DefaultSections(0, in)}
	inOff := int64(0)
	for m := 0; m < s.MBlocks; m++ {
		serial := m < s.SerialMB // serial microblocks come first (Fig. 6's m0)
		screens := o.ScreensPerMB
		perMBIn, perMBInstr := parIn/maxI64(parMBs, 1), parInstr/maxI64(parMBs, 1)
		if serial {
			screens = 1
			perMBIn, perMBInstr = serialIn/serialMBs, serialInstr/serialMBs
		}
		if perMBIn < 1 {
			perMBIn = 1
		}
		if perMBInstr < 1 {
			perMBInstr = 1
		}
		mb := kdt.Microblock{}
		perScrIn := perMBIn / int64(screens)
		perScrInstr := perMBInstr / int64(screens)
		if perScrIn < 1 {
			perScrIn = 1
		}
		if perScrInstr < 1 {
			perScrInstr = 1
		}
		for sc := 0; sc < screens; sc++ {
			ops := []kdt.Op{
				{Kind: kdt.OpRead, Section: 1, FlashAddr: inAddr + inOff + int64(sc)*perScrIn, Bytes: perScrIn},
				{Kind: kdt.OpCompute, Instr: perScrInstr, MulMilli: mul, LdStMilli: ldst},
			}
			// The last microblock writes the output, split across its
			// screens.
			if m == s.MBlocks-1 {
				perScrOut := out / int64(screens)
				if perScrOut < 1 {
					perScrOut = 1
				}
				ops = append(ops, kdt.Op{
					Kind: kdt.OpWrite, Section: 1,
					FlashAddr: outAddr + int64(sc)*perScrOut, Bytes: perScrOut,
				})
			}
			mb.Screens = append(mb.Screens, kdt.Screen{Ops: ops})
		}
		inOff += perMBIn
		if inOff > in {
			inOff = 0 // wrap defensively; reads must stay inside the input
		}
		tab.Microblocks = append(tab.Microblocks, mb)
	}
	tab.Sections[0].Size = tab.TextSize()
	return tab
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// Homogeneous builds the §5.1 homogeneous workload for one application:
// six kernel instances issued as three applications of two kernels each
// (the paper issues "6 instances from each kernel"; the 3×2 grouping
// reconstructs the reported InterSt/InterDy gap — see DESIGN.md).
func Homogeneous(name string, o Options) (*Bundle, error) {
	o, err := o.normalize()
	if err != nil {
		return nil, err
	}
	s, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	l := newLayout()
	in := s.InputBytes() / o.Scale
	if in < groupSize {
		in = groupSize
	}
	inAddr := l.input(in)
	b := &Bundle{
		Name:     name,
		Key:      fmt.Sprintf("homog/%s@s%d/m%d", name, o.Scale, o.ScreensPerMB),
		Populate: []Range{{Addr: inAddr, Bytes: in}},
	}
	for a := 0; a < 3; a++ {
		app := App{Name: fmt.Sprintf("%s-%d", name, a)}
		for k := 0; k < 2; k++ {
			tab := synthesize(s, o, inAddr, l)
			app.Tables = append(app.Tables, tab)
			b.Bytes += bundleReadBytes(tab)
		}
		b.Apps = append(b.Apps, app)
	}
	return b, nil
}

// Mix builds heterogeneous workload MXn: six applications, four kernel
// instances each (24 instances, §5.1).
func Mix(n int, o Options) (*Bundle, error) {
	o, err := o.normalize()
	if err != nil {
		return nil, err
	}
	members, err := MixMembers(n)
	if err != nil {
		return nil, err
	}
	l := newLayout()
	b := &Bundle{
		Name: fmt.Sprintf("MX%d", n),
		Key:  fmt.Sprintf("mix/%d@s%d/m%d", n, o.Scale, o.ScreensPerMB),
	}
	for _, name := range members {
		s, err := Lookup(name)
		if err != nil {
			return nil, err
		}
		in := s.InputBytes() / o.Scale
		if in < groupSize {
			in = groupSize
		}
		inAddr := l.input(in)
		b.Populate = append(b.Populate, Range{Addr: inAddr, Bytes: in})
		app := App{Name: name}
		for k := 0; k < 4; k++ {
			tab := synthesize(s, o, inAddr, l)
			app.Tables = append(app.Tables, tab)
			b.Bytes += bundleReadBytes(tab)
		}
		b.Apps = append(b.Apps, app)
	}
	return b, nil
}

func bundleReadBytes(t *kdt.Table) int64 {
	var n int64
	for _, mb := range t.Microblocks {
		for _, s := range mb.Screens {
			for _, op := range s.Ops {
				if op.Kind == kdt.OpRead {
					n += op.Bytes
				}
			}
		}
	}
	return n
}

// Sensitivity kernel constants: total instruction budget at paper scale and
// the B/KI that calibrates Fig. 3's ~4.5 GB/s eight-core ceiling.
const (
	sensitivityInstr = int64(8e9)
	sensitivityBKI   = 127.0
)

// SensitivityNominal returns the nominal processed bytes of the Fig. 3
// kernel at the given options — the Sensitivity return value — without
// synthesizing the bundle, so figure assembly can normalize cached runs.
func SensitivityNominal(o Options) (int64, error) {
	o, err := o.normalize()
	if err != nil {
		return 0, err
	}
	return int64(float64(sensitivityInstr/o.Scale) * sensitivityBKI / 1000), nil
}

// Sensitivity builds the Fig. 3b/3c synthetic kernel: a compute stream in
// which serialPct percent of the instructions sit in serial microblocks and
// the rest split across `screens`-way parallel microblocks. It returns the
// bundle and the nominal processed bytes (at 127 B/KI, which calibrates the
// figure's ~4.5 GB/s eight-core ceiling).
func Sensitivity(serialPct int, screens int, o Options) (*Bundle, int64, error) {
	if serialPct < 0 || serialPct > 100 {
		return nil, 0, fmt.Errorf("workload: serial percentage %d outside [0,100]", serialPct)
	}
	if screens < 1 {
		return nil, 0, fmt.Errorf("workload: %d screens", screens)
	}
	o, err := o.normalize()
	if err != nil {
		return nil, 0, err
	}
	instr := sensitivityInstr / o.Scale
	nominalBytes := int64(float64(instr) * sensitivityBKI / 1000)

	tab := &kdt.Table{Name: fmt.Sprintf("serial%d", serialPct), Sections: kdt.DefaultSections(0, 0)}
	mix := kdt.Op{Kind: kdt.OpCompute, MulMilli: 150, LdStMilli: 300}
	serialInstr := instr * int64(serialPct) / 100
	parInstr := instr - serialInstr
	// Ten alternating stages keep dependency chains realistic.
	const stages = 5
	for st := 0; st < stages; st++ {
		if serialInstr > 0 {
			op := mix
			op.Instr = serialInstr / stages
			if op.Instr < 1 {
				op.Instr = 1
			}
			tab.Microblocks = append(tab.Microblocks, kdt.Microblock{
				Screens: []kdt.Screen{{Ops: []kdt.Op{op}}},
			})
		}
		if parInstr > 0 {
			mb := kdt.Microblock{}
			per := parInstr / stages / int64(screens)
			if per < 1 {
				per = 1
			}
			for sc := 0; sc < screens; sc++ {
				op := mix
				op.Instr = per
				mb.Screens = append(mb.Screens, kdt.Screen{Ops: []kdt.Op{op}})
			}
			tab.Microblocks = append(tab.Microblocks, mb)
		}
	}
	b := &Bundle{
		Name: tab.Name,
		Key:  fmt.Sprintf("sens/%d/%d@s%d", serialPct, screens, o.Scale),
		Apps: []App{{Name: tab.Name, Tables: []*kdt.Table{tab}}},
	}
	return b, nominalBytes, nil
}
