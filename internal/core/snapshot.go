package core

import "fmt"

// Per-structure snapshot methods. Each AppendBinary appends the full
// state (configuration, clock, marks, cells) to dst, the caller's buffer,
// and is the structure's only encoder; the matching Unmarshal function
// rebuilds a structure that answers every future operation identically —
// the round-trip property the tests enforce.

// AppendBinary appends a snapshot of the Bloom filter to dst.
func (f *BF) AppendBinary(dst []byte) ([]byte, error) {
	e := snapEncoder{buf: dst}
	e.header(kindBF, f.cfg, f.tick, f.m, f.grp.w, f.fam.K())
	e.state([]*groupClock{f.gc}, bfBits{f})
	return e.buf, nil
}

// UnmarshalBF restores a Bloom filter from a snapshot.
func UnmarshalBF(data []byte) (*BF, error) {
	d := snapDecoder{buf: data}
	cfg, tick, g, err := d.header(kindBF, 3) // m, w, k
	if err == nil {
		err = d.fits(uint64(g[0]), g[2])
	}
	if err != nil {
		return nil, err
	}
	f, err := NewBF(int(g[0]), int(g[1]), int(g[2]), cfg)
	if err != nil {
		return nil, err
	}
	f.setTick(f.gc, tick)
	return f, d.state([]*groupClock{f.gc}, bfBits{f})
}

// AppendBinary appends a snapshot of the bitmap to dst.
func (b *BM) AppendBinary(dst []byte) ([]byte, error) {
	e := snapEncoder{buf: dst}
	e.header(kindBM, b.cfg, b.tick, b.bits.Len(), b.grp.w)
	e.state([]*groupClock{b.gc}, words64(b.bits.Words()))
	return e.buf, nil
}

// UnmarshalBM restores a bitmap from a snapshot.
func UnmarshalBM(data []byte) (*BM, error) {
	d := snapDecoder{buf: data}
	cfg, tick, g, err := d.header(kindBM, 2) // m, w
	if err == nil {
		err = d.fits(uint64(g[0]), 1)
	}
	if err != nil {
		return nil, err
	}
	b, err := NewBM(int(g[0]), int(g[1]), cfg)
	if err != nil {
		return nil, err
	}
	b.setTick(b.gc, tick)
	return b, d.state([]*groupClock{b.gc}, words64(b.bits.Words()))
}

// AppendBinary appends a snapshot of the HyperLogLog to dst.
func (h *HLL) AppendBinary(dst []byte) ([]byte, error) {
	e := snapEncoder{buf: dst}
	e.header(kindHLL, h.cfg, h.tick, h.regs.Len())
	e.state([]*groupClock{h.gc}, words64(h.regs.Words()))
	return e.buf, nil
}

// UnmarshalHLL restores a HyperLogLog from a snapshot.
func UnmarshalHLL(data []byte) (*HLL, error) {
	d := snapDecoder{buf: data}
	cfg, tick, g, err := d.header(kindHLL, 1) // m
	if err == nil {
		err = d.fits(5*uint64(g[0]), 2) // 5-bit registers
	}
	if err != nil {
		return nil, err
	}
	h, err := NewHLL(int(g[0]), cfg)
	if err != nil {
		return nil, err
	}
	h.setTick(h.gc, tick)
	return h, d.state([]*groupClock{h.gc}, words64(h.regs.Words()))
}

// AppendBinary appends a snapshot of the Count-Min sketch to dst.
func (c *CM) AppendBinary(dst []byte) ([]byte, error) {
	e := snapEncoder{buf: dst}
	e.header(kindCM, c.cfg, c.tick, len(c.cells), c.grp.w, c.fam.K(), counterBits)
	e.state([]*groupClock{c.gc}, cells32(c.cells))
	return e.buf, nil
}

// UnmarshalCM restores a Count-Min sketch from a snapshot.
func UnmarshalCM(data []byte) (*CM, error) {
	d := snapDecoder{buf: data}
	cfg, tick, g, err := d.header(kindCM, 4) // n, w, k, width
	if err == nil && g[3] != counterBits {
		err = fmt.Errorf("core: count-min snapshot has %d-bit counters; this build reads only %d-bit ones", g[3], counterBits)
	}
	if err == nil {
		err = d.fits(uint64(g[0])*counterBits, g[2])
	}
	if err != nil {
		return nil, err
	}
	c, err := NewCM(int(g[0]), int(g[1]), int(g[2]), counterBits, cfg)
	if err != nil {
		return nil, err
	}
	c.setTick(c.gc, tick)
	return c, d.state([]*groupClock{c.gc}, cells32(c.cells))
}

// AppendBinary appends a snapshot of the MinHash pair to dst.
func (mh *MH) AppendBinary(dst []byte) ([]byte, error) {
	e := snapEncoder{buf: dst}
	e.header(kindMH, mh.cfg, mh.tick, mh.c1.Len())
	e.state([]*groupClock{mh.g1, mh.g2}, words64(mh.c1.Words()), words64(mh.c2.Words()))
	return e.buf, nil
}

// UnmarshalMH restores a MinHash pair from a snapshot.
func UnmarshalMH(data []byte) (*MH, error) {
	d := snapDecoder{buf: data}
	cfg, tick, g, err := d.header(kindMH, 1) // m
	if err == nil {
		err = d.fits(2*24*uint64(g[0]), g[0]) // two arrays of 24-bit signatures
	}
	if err != nil {
		return nil, err
	}
	mh, err := NewMH(int(g[0]), cfg)
	if err != nil {
		return nil, err
	}
	mh.setTick(mh.g1, tick)
	return mh, d.state([]*groupClock{mh.g1, mh.g2}, words64(mh.c1.Words()), words64(mh.c2.Words()))
}
