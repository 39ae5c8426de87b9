package oat_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/oat"
	"repro/internal/workload"
)

// BenchmarkMarshal measures serializing the relink-warm image: the
// CTO+LTBO build of Kuaishou at scale 0.12, about 0.5 MB on disk. Run with
// -benchmem: the encoder allocates the file in one exact-size buffer, so
// allocations per op stay constant in the image size.
func BenchmarkMarshal(b *testing.B) {
	scale := 0.12
	if testing.Short() {
		scale = 0.03
	}
	prof, ok := workload.AppByName("Kuaishou", scale)
	if !ok {
		b.Fatal("no Kuaishou profile")
	}
	app, _, err := workload.Generate(prof)
	if err != nil {
		b.Fatal(err)
	}
	res, err := core.BuildCtx(context.Background(), app, core.CTOLTBO())
	if err != nil {
		b.Fatal(err)
	}
	data, err := res.Image.Marshal()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := res.Image.Marshal(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestMarshalExactSize pins the encoder's size arithmetic: the serialized
// file fills its buffer exactly and parses back to the same bytes.
func TestMarshalExactSize(t *testing.T) {
	prof, _ := workload.AppByName("Kuaishou", 0.03)
	app, _, err := workload.Generate(prof)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.BuildCtx(context.Background(), app, core.CTOLTBO())
	if err != nil {
		t.Fatal(err)
	}
	data, err := res.Image.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != cap(data) {
		t.Errorf("marshal buffer: len %d, cap %d; the size computation is off", len(data), cap(data))
	}
	back, err := oat.Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	again, err := back.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(data) {
		t.Error("marshal does not round-trip through unmarshal")
	}
}
