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
func (e *snapEncoder) state(clocks []*groupClock, arrays ...[]uint64) {
	for _, gc := range clocks {
		n := gc.groups()
		e.u32(uint32(n))
		var cur byte
		for i := 0; i < n; i++ {
			if gc.mark(i) {
				cur |= 1 << (i % 8)
			}
			if i%8 == 7 {
				e.u8(cur)
				cur = 0
			}
		}
		if n%8 != 0 {
			e.u8(cur)
		}
	}
	for _, ws := range arrays {
		e.u32(uint32(len(ws)))
		for _, w := range ws {
			e.u64(w)
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
func (d *snapDecoder) state(clocks []*groupClock, arrays ...[]uint64) error {
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
	for _, ws := range arrays {
		n, err := d.u32()
		if err != nil {
			return err
		}
		if int(n) != len(ws) {
			return fmt.Errorf("core: snapshot has %d words, structure has %d", n, len(ws))
		}
		for i := range ws {
			if ws[i], err = d.u64(); err != nil {
				return err
			}
		}
	}
	if len(d.buf) != 0 {
		return fmt.Errorf("core: %d trailing bytes in snapshot", len(d.buf))
	}
	return nil
}
