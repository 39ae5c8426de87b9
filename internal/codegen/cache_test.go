package codegen_test

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/codegen"
	"repro/internal/dex"
	"repro/internal/workload"
)

// keyApp is the fixed app the key-stability tests hash. Everything here
// is seeded, so the generated bytecode — and therefore the keys — are
// stable across runs and platforms.
func keyApp(t testing.TB) *dex.App {
	t.Helper()
	app, _, err := workload.Generate(workload.Profile{
		Name: "keyfix", Seed: 77, Methods: 30,
		NativeFrac: 0.1, SwitchFrac: 0.1, HotFrac: 0.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return app
}

// TestCacheKeyStability pins the key schema with a golden hash. If this
// test fails, the key layout changed: that is only acceptable together
// with a cacheSchema version bump (which changes every key, including
// this one — update the golden then). Silent drift is the failure mode
// being guarded: it would poison every on-disk cache in the field by
// serving entries computed under the old schema.
func TestCacheKeyStability(t *testing.T) {
	app := keyApp(t)
	opts := codegen.Options{CTO: true, Optimize: true}
	got := codegen.CacheKey(app.Methods[0], app.Methods, opts).String()
	const golden = "5f00b71bd7ff8b3181f4502e0f0b64c8c2c27d749e3ad22d3f9555e814f91940"
	if got != golden {
		t.Errorf("key schema drifted:\n got  %s\n want %s\n(bump cacheSchema and update the golden if this is intentional)", got, golden)
	}
}

// TestCacheKeyKnobs flips every codegen.Options knob that changes emitted
// words and checks each flip changes the key; the knobs excluded by the
// determinism contract must not.
func TestCacheKeyKnobs(t *testing.T) {
	app := keyApp(t)
	m := app.Methods[0]
	base := codegen.CacheKey(m, app.Methods, codegen.Options{CTO: true, Optimize: true})

	flips := []struct {
		name string
		opts codegen.Options
	}{
		{"CTO off", codegen.Options{CTO: false, Optimize: true}},
		{"Optimize off", codegen.Options{CTO: true, Optimize: false}},
		{"both off", codegen.Options{}},
	}
	seen := map[string]string{base.String(): "base"}
	for _, f := range flips {
		k := codegen.CacheKey(m, app.Methods, f.opts).String()
		if prev, dup := seen[k]; dup {
			t.Errorf("%s collides with %s", f.name, prev)
		}
		seen[k] = f.name
	}

	// Scheduling/observation knobs must NOT change the key.
	same := codegen.CacheKey(m, app.Methods, codegen.Options{CTO: true, Optimize: true, Workers: 8})
	if same != base {
		t.Error("Workers changed the key; it must affect scheduling only")
	}
}

// TestCacheKeyContent checks the key tracks every content input: the
// method's own bytecode and pool, and the signature of an invoked callee
// (whose change does not alter the caller's bytecode at all).
func TestCacheKeyContent(t *testing.T) {
	app := keyApp(t)
	opts := codegen.Options{CTO: true, Optimize: true}

	// Find a method that invokes someone.
	var caller *dex.Method
	var calleeID dex.MethodID
	for _, m := range app.Methods {
		for _, in := range m.Code {
			if in.Op == dex.OpInvoke {
				caller, calleeID = m, in.Method
				break
			}
		}
		if caller != nil {
			break
		}
	}
	if caller == nil {
		t.Fatal("generated app has no invoke site")
	}
	base := codegen.CacheKey(caller, app.Methods, opts)

	// Mutating the callee's signature must invalidate the caller.
	callee := app.Methods[calleeID]
	origName := callee.Name
	callee.Name = origName + "_renamed"
	if codegen.CacheKey(caller, app.Methods, opts) == base {
		t.Error("callee rename did not change the caller's key")
	}
	callee.Name = origName

	// Mutating the caller's own code must invalidate it.
	origLit := caller.Code[0].Lit
	caller.Code[0].Lit++
	if codegen.CacheKey(caller, app.Methods, opts) == base {
		t.Error("bytecode change did not change the key")
	}
	caller.Code[0].Lit = origLit

	if len(caller.Pool) > 0 {
		caller.Pool[0]++
		if codegen.CacheKey(caller, app.Methods, opts) == base {
			t.Error("pool change did not change the key")
		}
		caller.Pool[0]--
	}

	// Restored state hashes back to the original key.
	if codegen.CacheKey(caller, app.Methods, opts) != base {
		t.Error("restored method does not reproduce its key")
	}
}

// TestCacheKeyFieldBoundaries hashes pairs of methods that differ only by
// a value moved across the boundary between adjacent fields. A key
// encoding that is not prefix-free (a varint without its length, a list
// without its count, an optional part without its tag) would hash such a
// pair to one byte stream; every pair must get two keys.
func TestCacheKeyFieldBoundaries(t *testing.T) {
	opts := codegen.Options{CTO: true, Optimize: true}
	callee := func(class, name string) []*dex.Method {
		return []*dex.Method{{ID: 0, Class: class, Name: name, NumRegs: 3, NumIns: 2}}
	}
	key := func(code []dex.Insn, methods []*dex.Method) cache.Key {
		return codegen.CacheKey(&dex.Method{ID: 1, Class: "K", Name: "m", NumRegs: 4, NumIns: 1, Code: code}, methods, opts)
	}
	invoke := dex.Insn{Op: dex.OpInvoke, A: 0, B: 1, C: 2, Method: 0}
	ret := dex.Insn{Op: dex.OpReturn, A: 0}
	for _, c := range []struct {
		name       string
		a, b       []dex.Insn
		ma, mb     []*dex.Method
		sameMethod bool
	}{
		{name: "Lit and Target",
			a: []dex.Insn{{Op: dex.OpConst, Lit: 5, Target: 0}, ret},
			b: []dex.Insn{{Op: dex.OpConst, Lit: 0, Target: 5}, ret}},
		{name: "Lit and Target, multi-byte varints",
			a: []dex.Insn{{Op: dex.OpConst, Lit: 300, Target: 1}, ret},
			b: []dex.Insn{{Op: dex.OpConst, Lit: 1, Target: 300}, ret}},
		{name: "registers A and B",
			a: []dex.Insn{{Op: dex.OpMove, A: 1, B: 0}, ret},
			b: []dex.Insn{{Op: dex.OpMove, A: 0, B: 1}, ret}},
		{name: "switch targets split differently",
			a: []dex.Insn{{Op: dex.OpPackedSwitch, Targets: []int32{2, 3}}, {Op: dex.OpPackedSwitch, Targets: []int32{4}}, ret},
			b: []dex.Insn{{Op: dex.OpPackedSwitch, Targets: []int32{2}}, {Op: dex.OpPackedSwitch, Targets: []int32{3, 4}}, ret}},
		{name: "switch target and Method",
			a: []dex.Insn{{Op: dex.OpPackedSwitch, Targets: []int32{1}, Method: 0}, ret},
			b: []dex.Insn{{Op: dex.OpPackedSwitch, Targets: nil, Method: 1}, ret}},
		{name: "resolved and unresolved callee",
			a: []dex.Insn{invoke, ret}, ma: callee("C", "f"),
			b: []dex.Insn{invoke, ret}, mb: nil},
		{name: "class and name split",
			a: []dex.Insn{invoke, ret}, ma: callee("ab", "c"),
			b: []dex.Insn{invoke, ret}, mb: callee("a", "bc")},
	} {
		ka, kb := key(c.a, c.ma), key(c.b, c.mb)
		if ka == kb {
			t.Errorf("%s: both methods hash to %s", c.name, ka)
		}
	}
}

// TestCachedMethodRoundTrip encodes and decodes every method of the key
// app and requires full structural equality, plus byte-for-byte canonical
// re-encoding.
func TestCachedMethodRoundTrip(t *testing.T) {
	app := keyApp(t)
	methods, err := codegen.CompileCtx(context.Background(), app, codegen.Options{CTO: true, Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, cm := range methods {
		payload := codegen.EncodeCachedMethod(cm)
		back, err := codegen.DecodeCachedMethod(cm.M, payload)
		if err != nil {
			t.Fatalf("%s: decode: %v", cm.M.FullName(), err)
		}
		if !reflect.DeepEqual(normalize(cm), normalize(back)) {
			t.Fatalf("%s: round trip not structurally equal", cm.M.FullName())
		}
		if again := codegen.EncodeCachedMethod(back); !bytes.Equal(again, payload) {
			t.Fatalf("%s: codec not canonical (%d vs %d bytes)", cm.M.FullName(), len(again), len(payload))
		}
	}
}

// normalize maps empty slices to nil so DeepEqual compares content, not
// the nil/empty distinction (which nothing downstream observes).
func normalize(cm *codegen.CompiledMethod) *codegen.CompiledMethod {
	c := *cm
	if len(c.Code) == 0 {
		c.Code = nil
	}
	if len(c.Meta.PCRel) == 0 {
		c.Meta.PCRel = nil
	}
	if len(c.Meta.Terminators) == 0 {
		c.Meta.Terminators = nil
	}
	if len(c.Meta.EmbeddedData) == 0 {
		c.Meta.EmbeddedData = nil
	}
	if len(c.Meta.Slowpaths) == 0 {
		c.Meta.Slowpaths = nil
	}
	if len(c.StackMap) == 0 {
		c.StackMap = nil
	}
	if len(c.Ext) == 0 {
		c.Ext = nil
	}
	return &c
}

// TestDecodeCachedMethodRobust feeds damaged payloads to the decoder; it
// must return errors, never panic, and never accept trailing garbage.
func TestDecodeCachedMethodRobust(t *testing.T) {
	app := keyApp(t)
	methods, err := codegen.CompileCtx(context.Background(), app, codegen.Options{CTO: true, Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	good := codegen.EncodeCachedMethod(methods[0])
	m := methods[0].M

	for cut := 0; cut < len(good); cut += 3 {
		if _, err := codegen.DecodeCachedMethod(m, good[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes decoded", cut)
		}
	}
	if _, err := codegen.DecodeCachedMethod(m, append(append([]byte(nil), good...), 0, 0, 0, 0)); err == nil {
		t.Fatal("trailing bytes decoded")
	}
	skew := append([]byte(nil), good...)
	skew[0]++ // bump the entry version word
	if _, err := codegen.DecodeCachedMethod(m, skew); err == nil {
		t.Fatal("version-skewed entry decoded")
	}
}

// benchKey keeps BenchmarkCacheKey's result live.
var benchKey cache.Key

// BenchmarkCacheKey hashes the key of every method of a generated app,
// the per-method cost a fully warm build pays before each cache lookup.
// It reports the time per method and per bytecode instruction.
func BenchmarkCacheKey(b *testing.B) {
	app, _, err := workload.Generate(workload.Profile{Name: "keybench", Seed: 5, Methods: 400, SwitchFrac: 0.1})
	if err != nil {
		b.Fatal(err)
	}
	insns := 0
	for _, m := range app.Methods {
		insns += len(m.Code)
	}
	opts := codegen.Options{CTO: true, Optimize: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range app.Methods {
			benchKey = codegen.CacheKey(m, app.Methods, opts)
		}
	}
	perApp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	b.ReportMetric(perApp/float64(len(app.Methods)), "ns/method")
	b.ReportMetric(perApp/float64(insns), "ns/insn")
}
