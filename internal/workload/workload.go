// Package workload generates the synthetic Android applications the
// experiments run on, standing in for the six commercial OPPO App Market
// apps the paper measures (Toutiao, Taobao, Fanqie/Tomato Novel, Meituan,
// Kuaishou, WeChat), which are not redistributable.
//
// What the generator reproduces is the *redundancy structure* that Calibro
// exploits, not app functionality:
//
//   - a shared pool of code motifs drawn Zipf-style across methods, so that
//     short instruction sequences repeat heavily (Observation 1 and 2);
//   - per-method compilation templates (frame setup, allocation, call
//     sites) that repeat ART-specific patterns at rates matching the
//     paper's Figure 4 measurements (~6 Java call sites, ~1 stack check,
//     ~1-2 runtime-entrypoint calls per method);
//   - arg-gated call sites and hot loop kernels so a small set of methods
//     dominates execution time (the premise of hot-function filtering);
//   - JNI methods and packed-switch methods at realistic rates, exercising
//     the outliner's exclusion logic.
//
// Profiles are scaled ~1:220 from the paper's baseline OAT text sizes;
// ratios between apps are preserved.
package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/dex"
)

// Register conventions inside generated methods (NumRegs=12, NumIns=2):
//
//	v0..v2  scratch written by motifs and filler
//	v3      object reference
//	v4      array reference
//	v5      constant mask (31)
//	v6      loop counter
//	v10,v11 arguments
const (
	numRegs = 12
	numIns  = 2
	regObj  = 3
	regArr  = 4
	regMask = 5
	regCnt  = 6
	regArg0 = 10
	regArg1 = 11
)

// Profile parameterizes one synthetic application.
type Profile struct {
	Name    string
	Seed    int64
	Methods int // regular methods (drivers are extra)

	NativeFrac float64 // fraction compiled as JNI stubs
	SwitchFrac float64 // fraction containing a packed-switch
	HotFrac    float64 // fraction with heavy loop kernels

	MotifPool      int     // distinct motifs shared across the app
	MotifLen       int     // minimum motif length (default 3)
	MotifsPerM     int     // average motif instances per method
	CallSitesPerM  int     // average arg-gated invoke sites per method
	FillerPerMotif int     // average unique filler instructions per motif slot
	HotLoopIters   int     // iterations of a hot method's kernel loop
	WarmLoopIters  int     // iterations of an ordinary method's loop
	DriverCoverage float64 // fraction of methods each driver calls

	// Version and ChangedFrac select app-update delta mode (see
	// update.go): version V regenerates ~ChangedFrac of the methods per
	// version step and leaves the rest byte-identical to version V-1.
	Version     int
	ChangedFrac float64
}

// Manifest records generation-time ground truth used by experiments.
type Manifest struct {
	Drivers []dex.MethodID // entry methods ("activities")
	Hot     []dex.MethodID // methods given heavy kernels
}

// NumDrivers is the count of entry "activity" methods per generated app.
// They come on top of Profile.Methods and take the lowest method IDs.
const NumDrivers = 3

// Generate builds the application.
func Generate(p Profile) (*dex.App, *Manifest, error) {
	if p.Methods <= 0 {
		return nil, nil, fmt.Errorf("workload: profile %q has no methods", p.Name)
	}
	p = withDefaults(p)
	r := rand.New(rand.NewSource(p.Seed))
	g := &generator{p: p, r: r}
	g.buildMotifs()

	// Multidex layout like real app bundles: methods are spread over
	// classes (~40 methods each) and classes over dex files (~16 classes
	// each, i.e. ~650 methods per classesN.dex).
	app := &dex.App{Name: p.Name}
	const methodsPerClass, classesPerFile = 40, 16
	var curFile *dex.File
	var curClass *dex.Class
	nextClass := func() {
		if curFile == nil || len(curFile.Classes) == classesPerFile {
			name := "classes.dex"
			if len(app.Files) > 0 {
				name = fmt.Sprintf("classes%d.dex", len(app.Files)+1)
			}
			curFile = &dex.File{Name: name}
			app.Files = append(app.Files, curFile)
		}
		curClass = &dex.Class{Name: fmt.Sprintf("L%s/C%03d", p.Name, totalClasses(app))}
		curFile.Classes = append(curFile.Classes, curClass)
	}
	addMethod := func(m *dex.Method) {
		if curClass == nil || len(curClass.Methods) == methodsPerClass {
			nextClass()
		}
		m.Class = curClass.Name
		app.AddMethod(curClass, m)
	}

	man := &Manifest{}
	// Reserve driver slots first so they get the low IDs.
	for d := 0; d < NumDrivers; d++ {
		m := &dex.Method{Name: fmt.Sprintf("activity%d", d),
			NumRegs: numRegs, NumIns: numIns}
		addMethod(m)
		man.Drivers = append(man.Drivers, m.ID)
	}
	// Regular methods. In delta mode each method draws from its own
	// (app, method, revision)-seeded stream instead of the shared one, so
	// an update regenerates exactly the methods whose revision moved.
	first := dex.MethodID(NumDrivers)
	n := dex.MethodID(NumDrivers + p.Methods)
	for id := first; id < n; id++ {
		gm := g.methodGen(id)
		hot := gm.r.Float64() < p.HotFrac
		m := &dex.Method{Name: fmt.Sprintf("m%04d", id),
			NumRegs: numRegs, NumIns: numIns}
		switch {
		case gm.r.Float64() < p.NativeFrac:
			m.Native = true
		default:
			gm.methodBody(m, id, n, hot)
			if hot {
				man.Hot = append(man.Hot, id)
			}
		}
		addMethod(m)
	}
	// Driver bodies: call every hot method plus a sample of the rest.
	for d := 0; d < NumDrivers; d++ {
		g.driverGen(d).driverBody(app.Methods[d], man, first, n)
	}
	if err := app.Validate(); err != nil {
		return nil, nil, fmt.Errorf("workload: generated app invalid: %w", err)
	}
	return app, man, nil
}

func withDefaults(p Profile) Profile {
	def := func(v *int, d int) {
		if *v == 0 {
			*v = d
		}
	}
	def(&p.MotifPool, 110)
	def(&p.MotifsPerM, 4)
	def(&p.CallSitesPerM, 4)
	def(&p.FillerPerMotif, 30)
	def(&p.HotLoopIters, 1200)
	def(&p.WarmLoopIters, 2)
	if p.DriverCoverage == 0 {
		p.DriverCoverage = 0.30
	}
	return p
}

type generator struct {
	p      Profile
	r      *rand.Rand
	motifs [][]dex.Insn
	zipf   *rand.Zipf
}

// Zipf shape of motif popularity, shared by the base generator and the
// per-method delta streams so both draw from the same distribution.
const (
	zipfS = 1.4
	zipfV = 1.0
)

// buildMotifs creates the shared motif pool. Motifs are straight-line and
// write only scratch registers, so any motif can be dropped anywhere in a
// method body, including loop bodies.
func (g *generator) buildMotifs() {
	g.zipf = rand.NewZipf(g.r, zipfS, zipfV, uint64(g.p.MotifPool-1))
	for i := 0; i < g.p.MotifPool; i++ {
		g.motifs = append(g.motifs, g.randomMotif())
	}
}

func (g *generator) randomMotif() []dex.Insn {
	r := g.r
	scratch := func() uint8 { return uint8(r.Intn(3)) }
	min := 3
	if g.p.MotifLen > 0 {
		min = g.p.MotifLen
	}
	n := min + r.Intn(8)
	var code []dex.Insn
	for len(code) < n {
		switch r.Intn(10) {
		case 0:
			code = append(code, dex.Insn{Op: dex.OpConst, A: scratch(), Lit: int64(r.Intn(256))})
		case 1:
			code = append(code, dex.Insn{Op: dex.OpMove, A: scratch(), B: scratch()})
		case 2, 3, 4:
			ops := []dex.Opcode{dex.OpAdd, dex.OpSub, dex.OpAnd, dex.OpOr, dex.OpXor, dex.OpMul, dex.OpShl, dex.OpShr}
			code = append(code, dex.Insn{Op: ops[r.Intn(len(ops))], A: scratch(), B: scratch(), C: scratch()})
		case 5:
			code = append(code, dex.Insn{Op: dex.OpAddLit, A: scratch(), B: scratch(), Lit: int64(r.Intn(64))})
		case 6:
			code = append(code, dex.Insn{Op: dex.OpIGet, A: scratch(), B: regObj, Lit: int64(r.Intn(8))})
		case 7:
			code = append(code, dex.Insn{Op: dex.OpIPut, A: scratch(), B: regObj, Lit: int64(r.Intn(8))})
		case 8:
			code = append(code,
				dex.Insn{Op: dex.OpAnd, A: 2, B: scratch(), C: regMask},
				dex.Insn{Op: dex.OpAGet, A: scratch(), B: regArr, C: 2})
		case 9:
			code = append(code,
				dex.Insn{Op: dex.OpAnd, A: 2, B: scratch(), C: regMask},
				dex.Insn{Op: dex.OpAPut, A: scratch(), B: regArr, C: 2})
		}
	}
	return code
}

// emitMotif appends a shared motif instance.
func (g *generator) emitMotif(code []dex.Insn) []dex.Insn {
	idx := int(g.zipf.Uint64())
	return append(code, g.motifs[idx]...)
}

// emitFiller appends method-unique straight-line code: constants and
// immediates drawn from wide ranges, so the generated words almost never
// coincide across methods. Real application logic is mostly unique; the
// filler fraction is the knob that calibrates overall binary redundancy to
// the paper's ~25% estimate (Table 1).
func (g *generator) emitFiller(code []dex.Insn, n int) []dex.Insn {
	r := g.r
	scratch := func() uint8 { return uint8(r.Intn(3)) }
	for i := 0; i < n; i++ {
		switch r.Intn(4) {
		case 0:
			code = append(code, dex.Insn{Op: dex.OpConst, A: scratch(), Lit: int64(r.Intn(1 << 16))})
		case 1:
			code = append(code, dex.Insn{Op: dex.OpAddLit, A: scratch(), B: scratch(), Lit: int64(r.Intn(4096))})
		case 2:
			code = append(code, dex.Insn{Op: dex.OpAddLit, A: scratch(), B: scratch(), Lit: -int64(r.Intn(4096))})
		case 3:
			code = append(code, dex.Insn{Op: dex.OpIGet, A: scratch(), B: regObj, Lit: int64(r.Intn(8))},
				dex.Insn{Op: dex.OpConst, A: scratch(), Lit: int64(r.Intn(1 << 16))})
		}
	}
	return code
}

// mustNoBranches guards the loop-wrapping invariant: motifs are
// straight-line by construction, so dropping one into a counted loop can
// never create a branch whose target would need adjusting.
func mustNoBranches(motif []dex.Insn) {
	for _, in := range motif {
		if in.Op.IsBranch() {
			panic("workload: motif contains a branch")
		}
	}
}

// methodBody generates a regular method.
func (g *generator) methodBody(m *dex.Method, id, n dex.MethodID, hot bool) {
	r := g.r
	var code []dex.Insn

	// Per-method setup: mask, array, object, scratch initialization. The
	// shapes repeat across methods (the ART-template effect) but the
	// constants vary, as they do between real methods.
	code = append(code,
		dex.Insn{Op: dex.OpConst, A: regMask, Lit: 31},
		dex.Insn{Op: dex.OpConst, A: 0, Lit: int64(32 + r.Intn(32))},
		dex.Insn{Op: dex.OpNewArray, A: regArr, B: 0},
		dex.Insn{Op: dex.OpNewInstance, A: regObj, Lit: int64(8 + r.Intn(8))},
	)
	if r.Intn(2) == 0 {
		code = append(code, dex.Insn{Op: dex.OpMove, A: 0, B: regArg0})
	} else {
		code = append(code, dex.Insn{Op: dex.OpConst, A: 0, Lit: int64(r.Intn(1 << 16))})
	}
	if r.Intn(2) == 0 {
		code = append(code, dex.Insn{Op: dex.OpMove, A: 1, B: regArg1})
	} else {
		code = append(code, dex.Insn{Op: dex.OpConst, A: 1, Lit: int64(r.Intn(1 << 16))})
	}
	code = append(code,
		dex.Insn{Op: dex.OpConst, A: 2, Lit: int64(r.Intn(1 << 16))},
		dex.Insn{Op: dex.OpConst, A: 7, Lit: int64(r.Intn(1 << 16))},
	)

	// A fraction of methods own an "asset buffer": a larger array they
	// fill on entry, the stand-in for the bitmaps/resources real apps keep
	// resident. This puts data pages in the resident set so the Table 5
	// memory experiment sees a realistic code/data balance.
	if r.Float64() < 0.08 {
		size := int64(1024 + r.Intn(1024))
		code = append(code,
			dex.Insn{Op: dex.OpConst, A: 0, Lit: size},
			dex.Insn{Op: dex.OpNewArray, A: regArr, B: 0},
			dex.Insn{Op: dex.OpConst, A: regCnt, Lit: 0},
		)
		loopTop := int32(len(code))
		code = append(code,
			dex.Insn{Op: dex.OpAPut, A: 2, B: regArr, C: regCnt},
			dex.Insn{Op: dex.OpAddLit, A: regCnt, B: regCnt, Lit: 1},
			dex.Insn{Op: dex.OpIfLt, A: regCnt, B: 0, Target: loopTop},
		)
		// Restore v0 for the rest of the body.
		code = append(code, dex.Insn{Op: dex.OpConst, A: 0, Lit: int64(r.Intn(1 << 16))})
	}

	// Optional packed-switch on the argument (marks the method
	// indirect-jump and unoutlinable).
	if r.Float64() < g.p.SwitchFrac {
		code = g.emitSwitch(code)
	}

	// Motif instances, some wrapped in loops.
	if hot {
		// Hot kernel: a heavy counted loop whose body is mostly unique
		// code (real hot loops are specialized) with one shared motif —
		// the piece LTBO would outline, and the piece hot-function
		// filtering protects (§3.4.2).
		iters := g.p.HotLoopIters/2 + r.Intn(g.p.HotLoopIters)
		code = append(code, dex.Insn{Op: dex.OpConst, A: regCnt, Lit: int64(iters)})
		loopTop := int32(len(code))
		code = g.emitFiller(code, 60+r.Intn(90))
		motif := g.motifs[int(g.zipf.Uint64())]
		mustNoBranches(motif)
		code = append(code, motif...)
		code = g.emitFiller(code, 30+r.Intn(60))
		code = append(code,
			dex.Insn{Op: dex.OpAddLit, A: regCnt, B: regCnt, Lit: -1},
			dex.Insn{Op: dex.OpIfNez, A: regCnt, Target: loopTop},
		)
	}
	motifCount := 1 + r.Intn(2*g.p.MotifsPerM)
	loopsLeft := 1
	for k := 0; k < motifCount; k++ {
		if loopsLeft > 0 && r.Float64() < 0.25 {
			loopsLeft--
			iters := 1 + r.Intn(g.p.WarmLoopIters)
			code = append(code, dex.Insn{Op: dex.OpConst, A: regCnt, Lit: int64(iters)})
			loopTop := int32(len(code))
			motif := g.motifs[int(g.zipf.Uint64())]
			mustNoBranches(motif)
			code = append(code, motif...)
			code = append(code,
				dex.Insn{Op: dex.OpAddLit, A: regCnt, B: regCnt, Lit: -1},
				dex.Insn{Op: dex.OpIfNez, A: regCnt, Target: loopTop},
			)
			continue
		}
		code = g.emitMotif(code)
		code = g.emitFiller(code, r.Intn(2*g.p.FillerPerMotif+1))
	}

	// Arg-gated call sites: statically frequent (the Figure 4a pattern)
	// but mostly skipped at run time, like real call sites. Argument and
	// result registers vary per site, as they do in real code — only the
	// ART calling pattern itself repeats verbatim.
	sites := 1 + r.Intn(2*g.p.CallSitesPerM)
	for s := 0; s < sites && id+1 < n; s++ {
		callee := id + 1 + dex.MethodID(r.Intn(int(n-id-1)))
		gate := int64(r.Intn(10))
		if r.Intn(3) != 0 {
			gate = int64(r.Intn(256)) // most guards never fire at run time
		}
		gateReg := uint8(regArg1)
		if r.Intn(2) == 0 {
			gateReg = uint8(r.Intn(3)) // junk-valued scratch: rarely fires
		}
		argC := uint8(r.Intn(3))
		if r.Intn(3) == 0 {
			argC = regArg1
		}
		// Unique argument-preparation code between guard and call, like
		// real call sites computing their arguments.
		prep := g.emitFiller(nil, r.Intn(4))
		code = append(code,
			dex.Insn{Op: dex.OpConst, A: 7, Lit: gate},
			dex.Insn{Op: dex.OpIfNe, A: gateReg, B: 7, Target: int32(len(code) + 3 + len(prep))},
		)
		code = append(code, prep...)
		code = append(code,
			dex.Insn{Op: dex.OpInvoke, A: uint8(r.Intn(3)), Method: callee, B: uint8(r.Intn(3)), C: argC},
		)
	}

	// Occasional direct runtime-entrypoint use beyond allocation.
	if r.Intn(3) == 0 {
		code = append(code, dex.Insn{Op: dex.OpInvokeNative, A: 3, Native: dex.NativeGCSafepoint, B: 0})
	}

	code = append(code, dex.Insn{Op: dex.OpReturn, A: 0})
	m.Code = code
}

// emitSwitch appends a packed-switch diamond over the masked argument.
func (g *generator) emitSwitch(code []dex.Insn) []dex.Insn {
	r := g.r
	arms := 3 + r.Intn(4)
	// Layout: and; switch; default; goto end; arm0; goto end; ... armN-1; (end)
	code = append(code, dex.Insn{Op: dex.OpAnd, A: 7, B: regArg0, C: regMask})
	swAt := len(code)
	code = append(code, dex.Insn{Op: dex.OpPackedSwitch, A: 7}) // targets below
	end := len(code) + 1 /*default*/ + 1 /*goto*/ + arms*2
	targets := make([]int32, arms)
	code = append(code,
		dex.Insn{Op: dex.OpConst, A: 0, Lit: -1},
		dex.Insn{Op: dex.OpGoto, Target: int32(end)},
	)
	for a := 0; a < arms; a++ {
		targets[a] = int32(len(code))
		code = append(code,
			dex.Insn{Op: dex.OpAddLit, A: 0, B: regArg0, Lit: int64(a * 3)},
			dex.Insn{Op: dex.OpGoto, Target: int32(end)},
		)
	}
	code[swAt].Targets = targets
	// `end` equals len(code) here; the caller appends more instructions,
	// so the gotos land on whatever follows.
	if end != len(code) {
		panic("workload: switch layout miscomputed")
	}
	return code
}

// driverBody fills an entry method: call every hot method once, then a
// deterministic sample of the rest, logging each result.
func (g *generator) driverBody(m *dex.Method, man *Manifest, first, n dex.MethodID) {
	r := g.r
	var code []dex.Insn
	code = append(code,
		dex.Insn{Op: dex.OpMove, A: 0, B: regArg0},
		dex.Insn{Op: dex.OpMove, A: 1, B: regArg1},
	)
	call := func(id dex.MethodID) {
		code = append(code,
			dex.Insn{Op: dex.OpInvoke, A: 0, Method: id, B: 0, C: 1},
			dex.Insn{Op: dex.OpInvokeNative, A: 2, Native: dex.NativeLogValue, B: 0},
		)
	}
	for _, id := range man.Hot {
		call(id)
	}
	for id := first; id < n; id++ {
		if r.Float64() < g.p.DriverCoverage {
			call(id)
		}
	}
	code = append(code, dex.Insn{Op: dex.OpReturn, A: 0})
	m.Code = code
}

// totalClasses counts classes across files.
func totalClasses(app *dex.App) int {
	n := 0
	for _, f := range app.Files {
		n += len(f.Classes)
	}
	return n
}
