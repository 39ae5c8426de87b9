package oat

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"repro/internal/a64"
	"repro/internal/abi"
	"repro/internal/codegen"
	"repro/internal/dex"
)

// OAT files are ELF files (paper §1: "OAT files are special ELF files,
// containing a part of Android-specific content"). Marshal produces a
// minimal but valid ELF64 little-endian object with three content
// sections:
//
//	.text        the executable words, linked at abi.TextBase
//	.oat.tables  the Android-specific content: method records with LTBO
//	             metadata and stack maps, thunk and outlined-function
//	             records
//	.shstrtab    section name strings
//
// Unmarshal parses the ELF container and decodes the sections.

// Magic identifies the .oat.tables payload ("oat\x01" little-endian).
const Magic = 0x0174616F

// ELF constants used by the writer/reader.
const (
	elfHeaderSize    = 64
	sectionEntrySize = 64
	elfTypeDyn       = 3   // ET_DYN, like real OAT files
	elfMachineA64    = 183 // EM_AARCH64
	shtProgbits      = 1
	shtStrtab        = 3
	shfAlloc         = 0x2
	shfExecinstr     = 0x4
)

var sectionNames = []string{"", ".text", ".oat.tables", ".shstrtab"}

// Marshal serializes the image to the on-disk ELF format. The whole file
// is one exact-size buffer filled with direct little-endian appends, so
// the allocation count does not grow with the image.
func (img *Image) Marshal() ([]byte, error) {
	// String table: \0 then each name \0.
	shstr := []byte{0}
	nameOff := make([]uint32, len(sectionNames))
	for i, n := range sectionNames[1:] {
		nameOff[i+1] = uint32(len(shstr))
		shstr = append(append(shstr, n...), 0)
	}

	// Layout: ehdr | .text | .oat.tables | .shstrtab | section headers.
	textOff := uint64(elfHeaderSize)
	textSize := uint64(len(img.Text) * a64.WordSize)
	tablesOff := textOff + textSize
	tablesSize := uint64(img.tablesSize())
	strOff := tablesOff + tablesSize
	shOff := (strOff + uint64(len(shstr)) + 7) &^ 7
	shNum := uint64(len(sectionNames))

	le := binary.LittleEndian
	buf := make([]byte, 0, shOff+shNum*sectionEntrySize)
	// ELF header.
	buf = append(buf, 0x7F, 'E', 'L', 'F', 2, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0)
	buf = le.AppendUint16(buf, elfTypeDyn)
	buf = le.AppendUint16(buf, elfMachineA64)
	buf = le.AppendUint32(buf, 1)                // version
	buf = le.AppendUint64(buf, 0)                // entry
	buf = le.AppendUint64(buf, 0)                // phoff
	buf = le.AppendUint64(buf, shOff)            // shoff
	buf = le.AppendUint32(buf, 0)                // flags
	buf = le.AppendUint16(buf, elfHeaderSize)    // ehsize
	buf = le.AppendUint16(buf, 0)                // phentsize
	buf = le.AppendUint16(buf, 0)                // phnum
	buf = le.AppendUint16(buf, sectionEntrySize) // shentsize
	buf = le.AppendUint16(buf, uint16(shNum))    // shnum
	buf = le.AppendUint16(buf, uint16(shNum-1))  // shstrndx

	for _, w := range img.Text {
		buf = le.AppendUint32(buf, w)
	}
	buf = img.appendTables(buf)
	buf = append(buf, shstr...)
	for uint64(len(buf)) < shOff {
		buf = append(buf, 0)
	}

	type sh struct {
		name, typ      uint32
		flags, addr    uint64
		off, size      uint64
		link, info     uint32
		align, entsize uint64
	}
	sections := [...]sh{
		{}, // SHN_UNDEF
		{name: nameOff[1], typ: shtProgbits, flags: shfAlloc | shfExecinstr,
			addr: abi.TextBase, off: textOff, size: textSize, align: 4},
		{name: nameOff[2], typ: shtProgbits, off: tablesOff, size: tablesSize, align: 4},
		{name: nameOff[3], typ: shtStrtab, off: strOff, size: uint64(len(shstr)), align: 1},
	}
	for _, s := range sections {
		buf = le.AppendUint32(buf, s.name)
		buf = le.AppendUint32(buf, s.typ)
		buf = le.AppendUint64(buf, s.flags)
		buf = le.AppendUint64(buf, s.addr)
		buf = le.AppendUint64(buf, s.off)
		buf = le.AppendUint64(buf, s.size)
		buf = le.AppendUint32(buf, s.link)
		buf = le.AppendUint32(buf, s.info)
		buf = le.AppendUint64(buf, s.align)
		buf = le.AppendUint64(buf, s.entsize)
	}
	return buf, nil
}

// Unmarshal parses a serialized ELF image.
func Unmarshal(data []byte) (*Image, error) {
	if len(data) < elfHeaderSize {
		return nil, fmt.Errorf("oat: file too small for an ELF header")
	}
	if !bytes.Equal(data[:4], []byte{0x7F, 'E', 'L', 'F'}) {
		return nil, fmt.Errorf("oat: not an ELF file")
	}
	if data[4] != 2 || data[5] != 1 {
		return nil, fmt.Errorf("oat: not ELF64 little-endian")
	}
	le := binary.LittleEndian
	if le.Uint16(data[18:]) != elfMachineA64 {
		return nil, fmt.Errorf("oat: not an AArch64 image")
	}
	shOff := le.Uint64(data[40:])
	shNum := int(le.Uint16(data[60:]))
	shStrNdx := int(le.Uint16(data[62:]))
	if shNum == 0 || shStrNdx >= shNum {
		return nil, fmt.Errorf("oat: bad section header table")
	}
	if end := shOff + uint64(shNum*sectionEntrySize); end != uint64(len(data)) {
		return nil, fmt.Errorf("oat: file size %d does not match section header end %d", len(data), end)
	}
	type section struct {
		name      uint32
		off, size uint64
	}
	secs := make([]section, shNum)
	for i := range secs {
		base := shOff + uint64(i*sectionEntrySize)
		secs[i] = section{
			name: le.Uint32(data[base:]),
			off:  le.Uint64(data[base+24:]),
			size: le.Uint64(data[base+32:]),
		}
		if secs[i].off+secs[i].size > uint64(len(data)) {
			return nil, fmt.Errorf("oat: section %d out of bounds", i)
		}
	}
	strs := data[secs[shStrNdx].off : secs[shStrNdx].off+secs[shStrNdx].size]
	sectionByName := func(name string) ([]byte, bool) {
		for _, s := range secs {
			if int(s.name) < len(strs) {
				end := bytes.IndexByte(strs[s.name:], 0)
				if end >= 0 && string(strs[s.name:int(s.name)+end]) == name {
					return data[s.off : s.off+s.size], true
				}
			}
		}
		return nil, false
	}

	text, ok := sectionByName(".text")
	if !ok {
		return nil, fmt.Errorf("oat: no .text section")
	}
	if len(text)%4 != 0 {
		return nil, fmt.Errorf("oat: .text size not word aligned")
	}
	tables, ok := sectionByName(".oat.tables")
	if !ok {
		return nil, fmt.Errorf("oat: no .oat.tables section")
	}

	img := &Image{Text: make([]uint32, len(text)/4)}
	for i := range img.Text {
		img.Text[i] = le.Uint32(text[i*4:])
	}
	if err := img.decodeTables(tables); err != nil {
		return nil, err
	}
	return img, nil
}

// tablesSize is the exact byte size of the encoded .oat.tables payload.
func (img *Image) tablesSize() int {
	words := 4 + 4*(len(img.Thunks)+len(img.Outlined))
	for _, m := range img.Methods {
		words += 9 + 2*len(m.Meta.PCRel) + len(m.Meta.Terminators) +
			2*len(m.Meta.EmbeddedData) + 2*len(m.Meta.Slowpaths) + 3*len(m.StackMap)
	}
	return 4 * words
}

// appendTables appends the encoded Android-specific content to buf.
func (img *Image) appendTables(buf []byte) []byte {
	le := binary.LittleEndian
	u32 := func(v uint32) { buf = le.AppendUint32(buf, v) }
	u32(Magic)
	u32(uint32(len(img.Methods)))
	u32(uint32(len(img.Thunks)))
	u32(uint32(len(img.Outlined)))
	for _, fs := range [][]FuncRecord{img.Thunks, img.Outlined} {
		for _, f := range fs {
			buf = le.AppendUint64(buf, uint64(f.Sym))
			u32(uint32(f.Offset))
			u32(uint32(f.Size))
		}
	}
	writeRanges := func(rs []a64.Range) {
		u32(uint32(len(rs)))
		for _, r := range rs {
			u32(uint32(r.Start))
			u32(uint32(r.End))
		}
	}
	for _, m := range img.Methods {
		u32(uint32(m.ID))
		u32(uint32(m.Offset))
		u32(uint32(m.Size))
		flags := uint32(0)
		if m.Meta.HasIndirectJump {
			flags |= 1
		}
		if m.Meta.IsNative {
			flags |= 2
		}
		u32(flags)
		u32(uint32(len(m.Meta.PCRel)))
		for _, r := range m.Meta.PCRel {
			u32(uint32(r.InstOff))
			u32(uint32(r.TargetOff))
		}
		u32(uint32(len(m.Meta.Terminators)))
		for _, t := range m.Meta.Terminators {
			u32(uint32(t))
		}
		writeRanges(m.Meta.EmbeddedData)
		writeRanges(m.Meta.Slowpaths)
		u32(uint32(len(m.StackMap)))
		for _, s := range m.StackMap {
			u32(uint32(s.NativeOff))
			u32(uint32(s.DexPC))
			u32(s.Live)
		}
	}
	return buf
}

// decodeTables parses the Android-specific content into img.
func (img *Image) decodeTables(data []byte) error {
	r := &reader{data: data}
	if r.u32() != Magic {
		return fmt.Errorf("oat: bad tables magic")
	}
	nm, nt, no := r.u32(), r.u32(), r.u32()
	if r.err != nil {
		return r.err
	}
	const limit = 1 << 28
	if nm > limit || nt > limit || no > limit {
		return fmt.Errorf("oat: implausible table sizes")
	}
	readFunc := func() FuncRecord {
		return FuncRecord{Sym: int(r.u64()), Offset: int(r.u32()), Size: int(r.u32())}
	}
	for i := uint32(0); i < nt && r.err == nil; i++ {
		img.Thunks = append(img.Thunks, readFunc())
	}
	for i := uint32(0); i < no && r.err == nil; i++ {
		img.Outlined = append(img.Outlined, readFunc())
	}
	readRanges := func() []a64.Range {
		n := r.u32()
		var rs []a64.Range
		for i := uint32(0); i < n && r.err == nil; i++ {
			rs = append(rs, a64.Range{Start: int(r.u32()), End: int(r.u32())})
		}
		return rs
	}
	for i := uint32(0); i < nm && r.err == nil; i++ {
		var m MethodRecord
		m.ID = dex.MethodID(r.u32())
		m.Offset, m.Size = int(r.u32()), int(r.u32())
		flags := r.u32()
		m.Meta.HasIndirectJump = flags&1 != 0
		m.Meta.IsNative = flags&2 != 0
		npc := r.u32()
		for j := uint32(0); j < npc && r.err == nil; j++ {
			m.Meta.PCRel = append(m.Meta.PCRel, a64.Reloc{InstOff: int(r.u32()), TargetOff: int(r.u32())})
		}
		ntr := r.u32()
		for j := uint32(0); j < ntr && r.err == nil; j++ {
			m.Meta.Terminators = append(m.Meta.Terminators, int(r.u32()))
		}
		m.Meta.EmbeddedData = readRanges()
		m.Meta.Slowpaths = readRanges()
		nsm := r.u32()
		for j := uint32(0); j < nsm && r.err == nil; j++ {
			m.StackMap = append(m.StackMap, codegen.StackMapEntry{
				NativeOff: int(r.u32()), DexPC: int32(r.u32()), Live: r.u32(),
			})
		}
		img.Methods = append(img.Methods, m)
	}
	if r.err != nil {
		return r.err
	}
	if r.off != len(data) {
		return fmt.Errorf("oat: %d trailing bytes in tables", len(data)-r.off)
	}
	return nil
}

type reader struct {
	data []byte
	off  int
	err  error
}

func (r *reader) u32() uint32 {
	if r.err != nil {
		return 0
	}
	if r.off+4 > len(r.data) {
		r.err = fmt.Errorf("oat: truncated at offset %d", r.off)
		return 0
	}
	v := binary.LittleEndian.Uint32(r.data[r.off:])
	r.off += 4
	return v
}

func (r *reader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.data) {
		r.err = fmt.Errorf("oat: truncated at offset %d", r.off)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.data[r.off:])
	r.off += 8
	return v
}
