package cache_test

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/cache"
	"repro/internal/codegen"
	"repro/internal/workload"
)

// FuzzCacheEntry drives raw bytes through the full entry path a warm
// build trusts: the store's frame validation (Open) and the compiled-
// method codec (DecodeCachedMethod). The contract mirrors the oat
// fuzzers: whatever the frame check rejects is a miss; whatever it
// accepts must decode without panicking; and whatever decodes must
// re-encode to the exact accepted payload, because the codec is the
// canonical form a byte-identical warm build depends on.
func FuzzCacheEntry(f *testing.F) {
	app, _, err := workload.Generate(workload.Profile{
		Name: "fuzz", Seed: 23, Methods: 20,
		NativeFrac: 0.1, SwitchFrac: 0.1,
	})
	if err != nil {
		f.Fatal(err)
	}
	methods, err := codegen.CompileCtx(context.Background(), app, codegen.Options{CTO: true, Optimize: true})
	if err != nil {
		f.Fatal(err)
	}
	m0 := app.Methods[0]
	for _, cm := range methods {
		f.Add(cache.Seal(codegen.EncodeCachedMethod(cm)))
	}
	// Targeted damage on one real entry: flipped payload byte, flipped
	// checksum byte, truncation, version skew.
	seed := cache.Seal(codegen.EncodeCachedMethod(methods[0]))
	flip := func(i int) []byte {
		b := append([]byte(nil), seed...)
		b[i] ^= 0x20
		return b
	}
	f.Add(flip(len(seed) / 2))
	f.Add(flip(len(seed) - 1))
	f.Add(flip(4))
	f.Add(seed[:len(seed)-5])
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, b []byte) {
		payload, ok := cache.Open(b)
		if !ok {
			return // a miss: recompile, never an error
		}
		cm, err := codegen.DecodeCachedMethod(m0, payload)
		if err != nil {
			return // version skew or structural defect inside a valid frame: a miss
		}
		back := codegen.EncodeCachedMethod(cm)
		if !bytes.Equal(back, payload) {
			t.Fatalf("decoded entry re-encodes to %d bytes != accepted %d bytes", len(back), len(payload))
		}
		reopened, ok := cache.Open(cache.Seal(back))
		if !ok || !bytes.Equal(reopened, payload) {
			t.Fatal("re-sealed entry does not round-trip")
		}
	})
}
