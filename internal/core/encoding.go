package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Binary snapshot format, shared by the five structures. Everything is
// little-endian. Layout:
//
//	magic   [4]byte  "SHE2": the layout, and the position scheme
//	                 (hashing.Locate) the cells were placed under
//	kind    uint8    structure tag
//	N       uint64
//	alpha   float64
//	beta    float64
//	seed    uint64
//	tick    uint64
//	geom    per-kind fixed fields (uint32 each)
//	marks   uint32 count + ⌈count/8⌉ packed bytes (per clock)
//	cells   uint32 word count + words (per array)
//
// Snapshots are self-describing and validated on load; a snapshot
// restores an identical structure (same answers to every future query),
// which the tests enforce. The encoder appends to the caller's buffer,
// so an outer format (the root package's sharded snapshot, and around
// it shed's file) lays a structure down in place, behind its own
// header, with no copy.

const snapshotMagic = "SHE2"

// ErrHashScheme refuses a "SHE1" snapshot: this layout, but with cells
// where scheme 1 put them — decoded, every key would miss its own.
var ErrHashScheme = errors.New(`core: snapshot "SHE1" was hashed under position scheme 1 (one mix per location); this build reads only "SHE2", scheme 2 (k positions from one mix) — rebuild the sketch from its stream`)

// Structure tags.
const (
	kindBF byte = iota + 1
	kindBM
	kindHLL
	kindCM
	kindMH
)

var errSnapshot = errors.New("core: malformed snapshot")

type snapEncoder struct{ buf []byte }

func (e *snapEncoder) u8(v byte)     { e.buf = append(e.buf, v) }
func (e *snapEncoder) u32(v uint32)  { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }
func (e *snapEncoder) u64(v uint64)  { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }
func (e *snapEncoder) f64(v float64) { e.u64(math.Float64bits(v)) }

// header writes the common header, then the structure's geometry
// fields.
func (e *snapEncoder) header(kind byte, cfg WindowConfig, tick uint64, geom ...int) {
	e.buf = append(e.buf, snapshotMagic...)
	e.u8(kind)
	e.u64(cfg.N)
	e.f64(cfg.Alpha)
	e.f64(cfg.Beta)
	e.u64(cfg.Seed)
	e.u64(tick)
	for _, g := range geom {
		e.u32(uint32(g))
	}
}

// state writes the marks of each clock, then the words of each array.
func (e *snapEncoder) state(clocks []*groupClock, arrays ...array) {
	for _, gc := range clocks {
		n := gc.groups()
		e.u32(uint32(n))
		for i := 0; i < n; i += 8 {
			var b byte
			for j := i; j < min(i+8, n); j++ {
				if gc.mark(j) {
					b |= 1 << (j - i)
				}
			}
			e.u8(b)
		}
	}
	for _, a := range arrays {
		e.u32(uint32(a.words()))
		e.buf = a.appendTo(e.buf)
	}
}

// array is one cell array of a snapshot: its length in words, then the
// words, little-endian.
type array interface {
	words() int
	appendTo(buf []byte) []byte
	load(raw []byte) // raw holds words() words
}

// words64 is an array stored as it is held.
type words64 []uint64

func (ws words64) words() int { return len(ws) }

func (ws words64) appendTo(buf []byte) []byte {
	for _, w := range ws {
		buf = binary.LittleEndian.AppendUint64(buf, w)
	}
	return buf
}

func (ws words64) load(raw []byte) {
	for i := range ws {
		ws[i] = binary.LittleEndian.Uint64(raw[8*i:])
	}
}

// cells32 is 32-bit counters as the format has always held them, a
// packed array of 32-bit fields: two cells a word, then the slack word
// a packed array kept for fields that straddle words.
type cells32 []uint32

func (c cells32) words() int { return (len(c)+1)/2 + 1 }

func (c cells32) appendTo(buf []byte) []byte {
	for _, v := range c {
		buf = binary.LittleEndian.AppendUint32(buf, v)
	}
	return append(buf, make([]byte, 8*c.words()-4*len(c))...)
}

func (c cells32) load(raw []byte) {
	for i := range c {
		c[i] = binary.LittleEndian.Uint32(raw[4*i:])
	}
}

// bfBits is a filter's bits as the format has always held them: one
// flat array, group gid's w bits from bit gid·w. They move a group word
// at a time, shifted into place.
type bfBits struct{ *BF }

func (f bfBits) words() int { return (f.m + 63) / 64 }

func (f bfBits) appendTo(buf []byte) []byte {
	var acc uint64 // the next output word, its low n bits filled
	n := 0
	for gid := range f.gc.groups() {
		for i, size := 0, f.grp.size(gid); 64*i < size; i++ {
			w, b := f.data[gid*f.gc.stride+1+i], min(64, size-64*i)
			acc |= w << n
			if n+b >= 64 {
				buf = binary.LittleEndian.AppendUint64(buf, acc)
				acc = w >> (64 - n)
			}
			n = (n + b) % 64
		}
	}
	if n > 0 {
		buf = binary.LittleEndian.AppendUint64(buf, acc)
	}
	return buf
}

func (f bfBits) load(raw []byte) {
	var acc uint64 // input bits not yet placed, the next in bit 0
	n := 0
	for gid := range f.gc.groups() {
		for i, size := 0, f.grp.size(gid); 64*i < size; i++ {
			b := min(64, size-64*i)
			w := acc
			if n < b {
				next := binary.LittleEndian.Uint64(raw)
				raw = raw[8:]
				w |= next << n
				acc = next >> (b - n)
			} else {
				acc >>= b
			}
			n = (n - b + 64) % 64
			f.data[gid*f.gc.stride+1+i] = w & (^uint64(0) >> (64 - b))
		}
	}
}

type snapDecoder struct{ buf []byte }

func (d *snapDecoder) u8() (byte, error) {
	if len(d.buf) < 1 {
		return 0, errSnapshot
	}
	v := d.buf[0]
	d.buf = d.buf[1:]
	return v, nil
}

func (d *snapDecoder) u32() (uint32, error) {
	if len(d.buf) < 4 {
		return 0, errSnapshot
	}
	v := binary.LittleEndian.Uint32(d.buf)
	d.buf = d.buf[4:]
	return v, nil
}

func (d *snapDecoder) u64() (uint64, error) {
	if len(d.buf) < 8 {
		return 0, errSnapshot
	}
	v := binary.LittleEndian.Uint64(d.buf)
	d.buf = d.buf[8:]
	return v, nil
}

func (d *snapDecoder) f64() (float64, error) {
	v, err := d.u64()
	return math.Float64frombits(v), err
}

// header reads the common header of a snapshot of the wanted kind, then
// its n geometry fields.
func (d *snapDecoder) header(wantKind byte, n int) (cfg WindowConfig, tick uint64, geom []uint32, err error) {
	if len(d.buf) >= 4 && string(d.buf[:4]) == "SHE1" {
		return cfg, 0, nil, ErrHashScheme
	}
	if len(d.buf) < 4 || string(d.buf[:4]) != snapshotMagic {
		return cfg, 0, nil, fmt.Errorf("core: bad snapshot magic")
	}
	d.buf = d.buf[4:]
	kind, err := d.u8()
	if err != nil {
		return cfg, 0, nil, err
	}
	if kind != wantKind {
		return cfg, 0, nil, fmt.Errorf("core: snapshot holds kind %d, want %d", kind, wantKind)
	}
	if cfg.N, err = d.u64(); err != nil {
		return cfg, 0, nil, err
	}
	if cfg.Alpha, err = d.f64(); err != nil {
		return cfg, 0, nil, err
	}
	if cfg.Beta, err = d.f64(); err != nil {
		return cfg, 0, nil, err
	}
	if cfg.Seed, err = d.u64(); err != nil {
		return cfg, 0, nil, err
	}
	if tick, err = d.u64(); err != nil {
		return cfg, 0, nil, err
	}
	if err = cfg.Validate(); err != nil {
		return cfg, 0, nil, err
	}
	geom = make([]uint32, n)
	for i := range geom {
		if geom[i], err = d.u32(); err != nil {
			return cfg, 0, nil, err
		}
	}
	return cfg, tick, geom, nil
}

// fits refuses, before anything that size is allocated, a geometry
// whose cells — bits in all — could not be in what is left of the
// snapshot, or whose hash family outnumbers them: a damaged header must
// not make a decoder allocate more than a small multiple of its input.
func (d *snapDecoder) fits(bits uint64, hashes uint32) error {
	if bits > 8*uint64(len(d.buf)) || uint64(hashes) > bits {
		return fmt.Errorf("core: snapshot geometry (%d cell bits, %d hashes) does not fit its %d bytes", bits, hashes, len(d.buf))
	}
	return nil
}

// state reads the marks of each clock, then the words of each array,
// into the structure the header's geometry built, and requires that
// nothing follows.
func (d *snapDecoder) state(clocks []*groupClock, arrays ...array) error {
	for _, gc := range clocks {
		n, err := d.u32()
		if err != nil {
			return err
		}
		if int(n) != gc.groups() {
			return fmt.Errorf("core: snapshot has %d marks, structure has %d", n, gc.groups())
		}
		bytes := (int(n) + 7) / 8
		if len(d.buf) < bytes {
			return errSnapshot
		}
		for i := 0; i < int(n); i++ {
			gc.setMark(i, d.buf[i/8]&(1<<(i%8)) != 0)
		}
		d.buf = d.buf[bytes:]
	}
	for _, a := range arrays {
		n, err := d.u32()
		if err != nil {
			return err
		}
		if int(n) != a.words() {
			return fmt.Errorf("core: snapshot has %d words, structure has %d", n, a.words())
		}
		if len(d.buf) < 8*int(n) {
			return errSnapshot
		}
		a.load(d.buf[:8*n])
		d.buf = d.buf[8*n:]
	}
	if len(d.buf) != 0 {
		return fmt.Errorf("core: %d trailing bytes in snapshot", len(d.buf))
	}
	return nil
}
