package dex

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// Binary serialization of an App in the spirit of the dex container: a
// magic ("dex\n035\0" like real dex files), the file/class/method
// hierarchy, and per-instruction encodings whose layout depends on the
// opcode — real dalvik instructions likewise come in opcode-specific
// formats. Immediates use zigzag varints.

var dexMagic = []byte("dex\n035\x00")

// Marshal serializes the app.
func Marshal(app *App) ([]byte, error) {
	if err := app.Validate(); err != nil {
		return nil, fmt.Errorf("dex: refusing to marshal invalid app: %w", err)
	}
	if err := checkNameLengths(app); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	buf.Write(dexMagic)
	ws := func(s string) {
		var l [2]byte
		binary.LittleEndian.PutUint16(l[:], uint16(len(s)))
		buf.Write(l[:])
		buf.WriteString(s)
	}
	wu := func(v uint64) {
		var tmp [binary.MaxVarintLen64]byte
		buf.Write(tmp[:binary.PutUvarint(tmp[:], v)])
	}
	wi := func(v int64) {
		var tmp [binary.MaxVarintLen64]byte
		buf.Write(tmp[:binary.PutVarint(tmp[:], v)])
	}

	ws(app.Name)
	wu(uint64(len(app.Files)))
	for _, f := range app.Files {
		ws(f.Name)
		wu(uint64(len(f.Classes)))
		for _, c := range f.Classes {
			ws(c.Name)
			wu(uint64(len(c.Methods)))
			for _, m := range c.Methods {
				ws(m.Name)
				wu(uint64(m.ID))
				wu(uint64(m.NumRegs))
				wu(uint64(m.NumIns))
				if m.Native {
					buf.WriteByte(1)
				} else {
					buf.WriteByte(0)
				}
				wu(uint64(len(m.Pool)))
				for _, p := range m.Pool {
					wu(p)
				}
				wu(uint64(len(m.Code)))
				for _, in := range m.Code {
					buf.WriteByte(byte(in.Op))
					buf.WriteByte(in.A)
					buf.WriteByte(in.B)
					buf.WriteByte(in.C)
					switch in.Op {
					case OpConst, OpConstPool, OpAddLit, OpIGet, OpIPut, OpNewInstance:
						wi(in.Lit)
					case OpPackedSwitch:
						wu(uint64(len(in.Targets)))
						for _, t := range in.Targets {
							wi(int64(t))
						}
					case OpInvoke:
						wu(uint64(in.Method))
					case OpInvokeNative:
						buf.WriteByte(byte(in.Native))
					}
					if in.Op.IsBranch() && in.Op != OpPackedSwitch {
						wi(int64(in.Target))
					}
				}
			}
		}
	}
	return buf.Bytes(), nil
}

// Minimum encoded sizes, which bound every count by the bytes left: an
// instruction is at least its 4-byte head, a pool entry or switch target
// at least a 1-byte varint, a method at least its name length, five
// one-byte varints and the native flag, and a file or class its name
// length and a one-byte count.
const (
	minInsnBytes   = 4
	minMethodBytes = 2 + 5 + 1
	minGroupBytes  = 2 + 1
)

// maxNameBytes is the longest name the 16-bit length prefix encodes.
const maxNameBytes = 0xFFFF

// checkNameLengths refuses an app with a name the container cannot hold,
// naming the field, rather than letting Marshal truncate it.
func checkNameLengths(app *App) error {
	long := func(field, name string) error {
		return fmt.Errorf("dex: %s %q... is %d bytes, over the %d-byte limit",
			field, name[:32], len(name), maxNameBytes)
	}
	if len(app.Name) > maxNameBytes {
		return long("app name", app.Name)
	}
	for _, f := range app.Files {
		if len(f.Name) > maxNameBytes {
			return long("file name", f.Name)
		}
		for _, c := range f.Classes {
			if len(c.Name) > maxNameBytes {
				return long("class name", c.Name)
			}
			for _, m := range c.Methods {
				if len(m.Name) > maxNameBytes {
					return long("method name", c.Name+"."+m.Name)
				}
			}
		}
	}
	return nil
}

// UnmarshalApp parses a serialized app and validates it. Each slice is
// allocated once at its encoded count, and a count the remaining bytes
// cannot hold is refused as truncated before anything is allocated for
// it.
func UnmarshalApp(data []byte) (*App, error) {
	r := &byteReader{data: data}
	magic := r.bytes(len(dexMagic))
	if r.err != nil || !bytes.Equal(magic, dexMagic) {
		return nil, fmt.Errorf("dex: bad magic")
	}
	app := &App{Name: r.str()}
	nFiles := r.uvarint()
	if nFiles > 1<<16 {
		return nil, fmt.Errorf("dex: implausible file count %d", nFiles)
	}
	var methods []*Method // in encoding order; placed by ID below
	app.Files = make([]*File, r.count(nFiles, minGroupBytes))
	for i := range app.Files {
		f := &File{Name: r.str()}
		app.Files[i] = f
		nClasses := r.uvarint()
		if nClasses > 1<<20 {
			return nil, fmt.Errorf("dex: implausible class count %d", nClasses)
		}
		f.Classes = make([]*Class, r.count(nClasses, minGroupBytes))
		for j := range f.Classes {
			c := &Class{Name: r.str()}
			f.Classes[j] = c
			nMethods := r.uvarint()
			if nMethods > 1<<24 {
				return nil, fmt.Errorf("dex: implausible method count %d", nMethods)
			}
			c.Methods = make([]*Method, r.count(nMethods, minMethodBytes))
			for k := range c.Methods {
				m, err := r.method(c.Name)
				if err != nil {
					return nil, err
				}
				c.Methods[k] = m
				methods = append(methods, m)
			}
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(data) {
		return nil, fmt.Errorf("dex: %d trailing bytes", len(data)-r.off)
	}
	// Rebuild the app-wide method table by ID.
	app.Methods = make([]*Method, len(methods))
	for _, m := range methods {
		if int(m.ID) >= len(methods) || app.Methods[m.ID] != nil {
			return nil, fmt.Errorf("dex: bad or duplicate method id %d", m.ID)
		}
		app.Methods[m.ID] = m
	}
	if err := app.Validate(); err != nil {
		return nil, err
	}
	return app, nil
}

// method decodes one method of class cls. Its instructions are decoded in
// place into the final Code slice. A read error is left in r.err.
func (r *byteReader) method(cls string) (*Method, error) {
	m := &Method{Class: cls, Name: r.str()}
	m.ID = MethodID(r.uvarint())
	m.NumRegs = int(r.uvarint())
	m.NumIns = int(r.uvarint())
	m.Native = r.byte() == 1
	nPool := r.uvarint()
	if nPool > 1<<24 {
		return nil, fmt.Errorf("dex: implausible pool size %d", nPool)
	}
	if n := r.count(nPool, 1); n > 0 {
		m.Pool = make([]uint64, n)
		for p := range m.Pool {
			m.Pool[p] = r.uvarint()
		}
	}
	nCode := r.uvarint()
	if nCode > 1<<26 {
		return nil, fmt.Errorf("dex: implausible code size %d", nCode)
	}
	if n := r.count(nCode, minInsnBytes); n > 0 {
		m.Code = make([]Insn, n)
	}
	for p := range m.Code {
		if r.err != nil || len(r.data)-r.off < minInsnBytes {
			r.fail("truncated at offset %d", r.off)
			break
		}
		in := &m.Code[p]
		h := r.data[r.off : r.off+minInsnBytes : r.off+minInsnBytes]
		in.Op, in.A, in.B, in.C = Opcode(h[0]), h[1], h[2], h[3]
		r.off += minInsnBytes
		switch in.Op {
		case OpConst, OpConstPool, OpAddLit, OpIGet, OpIPut, OpNewInstance:
			in.Lit = r.varint()
		case OpPackedSwitch:
			nT := r.uvarint()
			if nT > 1<<16 {
				return nil, fmt.Errorf("dex: implausible switch size %d", nT)
			}
			if n := r.count(nT, 1); n > 0 {
				in.Targets = make([]int32, n)
				for t := range in.Targets {
					in.Targets[t] = int32(r.varint())
				}
			}
		case OpInvoke:
			in.Method = MethodID(r.uvarint())
		case OpInvokeNative:
			in.Native = NativeFunc(r.byte())
		}
		if in.Op.IsBranch() && in.Op != OpPackedSwitch {
			in.Target = int32(r.varint())
		}
	}
	return m, nil
}

type byteReader struct {
	data []byte
	off  int
	err  error
}

func (r *byteReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("dex: "+format, args...)
	}
}

// count returns n as a slice length when n items of at least min bytes
// each fit in the bytes left, and otherwise fails as truncated and
// returns 0. After an earlier failure it returns 0.
func (r *byteReader) count(n uint64, min int) int {
	if r.err != nil {
		return 0
	}
	if n > uint64(len(r.data)-r.off)/uint64(min) {
		r.fail("truncated at offset %d: %d items of at least %d bytes do not fit", r.off, n, min)
		return 0
	}
	return int(n)
}

func (r *byteReader) bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.data) {
		r.fail("truncated at offset %d", r.off)
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

func (r *byteReader) byte() byte {
	b := r.bytes(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *byteReader) str() string {
	lb := r.bytes(2)
	if lb == nil {
		return ""
	}
	return string(r.bytes(int(binary.LittleEndian.Uint16(lb))))
}

func (r *byteReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		r.fail("bad uvarint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *byteReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.data[r.off:])
	if n <= 0 {
		r.fail("bad varint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}
