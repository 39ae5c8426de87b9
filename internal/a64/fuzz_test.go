package a64

import (
	"encoding/binary"
	"testing"
)

// FuzzDecode checks the decode/re-encode identity on arbitrary words: any
// word the decoder accepts must re-encode to exactly the same bits, and
// the decoder must never panic on junk (the "embedded data misread as
// instructions" hazard of §3.2).
func FuzzDecode(f *testing.F) {
	seed := []uint32{
		0xD65F03C0, // ret
		0xA9BE7BFD, // stp x29, x30, [sp, #-32]!
		0xF940101E, // ldr x30, [x0, #32]
		0xD63F03C0, // blr x30
		0x94000000, // bl
		0x54000041, // b.ne
		0xF8627820, // ldr x0, [x1, x2, lsl #3]
		0xDEADBEEF, // junk
		0x00000000,
		0xFFFFFFFF,
	}
	for _, w := range seed {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], w)
		f.Add(b[:])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		w := binary.LittleEndian.Uint32(data)
		inst, ok := Decode(w)
		if !ok {
			return
		}
		back, err := Encode(inst)
		if err != nil {
			t.Fatalf("decoded %#08x to %v but cannot re-encode: %v", w, inst, err)
		}
		if back != w {
			t.Fatalf("decode/encode not identity: %#08x -> %v -> %#08x", w, inst, back)
		}
		_ = inst.String() // must not panic
	})
}

// FuzzPatchRel checks displacement patching against its definition: the
// word Encode makes of Decode(w) with the displacement replaced, or a
// refusal exactly when w is no PC-relative instruction or Encode refuses.
// Offsets are not masked, so misaligned and out-of-range ones are fuzzed
// too.
func FuzzPatchRel(f *testing.F) {
	f.Add(uint32(0x14000000), int64(64))
	f.Add(uint32(0x94000000), int64(-4))
	f.Add(uint32(0x97FFFFFF), int64(1<<27))
	f.Add(uint32(0x14000000), int64(-1<<27))
	f.Add(uint32(0x94000000), int64(6))
	f.Add(uint32(0x54000041), int64(-8))
	f.Add(uint32(0xD503201F), int64(4))
	f.Fuzz(func(t *testing.T, w uint32, off int64) {
		patched, err := PatchRel(w, off)
		var want uint32
		var wantErr error
		if inst, ok := Decode(w); !ok || !inst.Op.IsPCRel() {
			wantErr = errNotPCRel(w)
		} else {
			inst.Imm = off
			want, wantErr = Encode(inst)
		}
		if (err != nil) != (wantErr != nil) || err == nil && patched != want {
			t.Fatalf("PatchRel(%#08x, %#x) = %#08x, %v; want %#08x, %v", w, off, patched, err, want, wantErr)
		}
		if err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("PatchRel(%#08x, %#x) refused with %q, want %q", w, off, err, wantErr)
		}
	})
}
