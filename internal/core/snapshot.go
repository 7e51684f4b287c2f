package core

// Per-structure snapshot methods. Each MarshalBinary captures the full
// state (configuration, clock, marks, cells); the matching Unmarshal
// function rebuilds a structure that answers every future operation
// identically — the round-trip property the tests enforce.

// MarshalBinary snapshots the Bloom filter.
func (f *BF) MarshalBinary() ([]byte, error) {
	var e snapEncoder
	e.header(kindBF, f.cfg, f.tick)
	e.u32(uint32(f.bits.Len()))
	e.u32(uint32(f.grp.w))
	e.u32(uint32(f.fam.K()))
	e.marks(f.gc)
	e.words(f.bits.Words())
	return e.buf, nil
}

// UnmarshalBF restores a Bloom filter from a snapshot.
func UnmarshalBF(data []byte) (*BF, error) {
	d := snapDecoder{buf: data}
	cfg, tick, err := d.header(kindBF)
	if err != nil {
		return nil, err
	}
	m, err := d.u32()
	if err != nil {
		return nil, err
	}
	w, err := d.u32()
	if err != nil {
		return nil, err
	}
	k, err := d.u32()
	if err != nil {
		return nil, err
	}
	f, err := NewBF(int(m), int(w), int(k), cfg)
	if err != nil {
		return nil, err
	}
	f.setTick(f.gc, tick)
	if err := d.marks(f.gc); err != nil {
		return nil, err
	}
	if err := d.words(f.bits.Words()); err != nil {
		return nil, err
	}
	return f, d.done()
}

// MarshalBinary snapshots the bitmap.
func (b *BM) MarshalBinary() ([]byte, error) {
	var e snapEncoder
	e.header(kindBM, b.cfg, b.tick)
	e.u32(uint32(b.bits.Len()))
	e.u32(uint32(b.grp.w))
	e.marks(b.gc)
	e.words(b.bits.Words())
	return e.buf, nil
}

// UnmarshalBM restores a bitmap from a snapshot.
func UnmarshalBM(data []byte) (*BM, error) {
	d := snapDecoder{buf: data}
	cfg, tick, err := d.header(kindBM)
	if err != nil {
		return nil, err
	}
	m, err := d.u32()
	if err != nil {
		return nil, err
	}
	w, err := d.u32()
	if err != nil {
		return nil, err
	}
	b, err := NewBM(int(m), int(w), cfg)
	if err != nil {
		return nil, err
	}
	b.setTick(b.gc, tick)
	if err := d.marks(b.gc); err != nil {
		return nil, err
	}
	if err := d.words(b.bits.Words()); err != nil {
		return nil, err
	}
	return b, d.done()
}

// MarshalBinary snapshots the HyperLogLog.
func (h *HLL) MarshalBinary() ([]byte, error) {
	var e snapEncoder
	e.header(kindHLL, h.cfg, h.tick)
	e.u32(uint32(h.regs.Len()))
	e.marks(h.gc)
	e.words(h.regs.Words())
	return e.buf, nil
}

// UnmarshalHLL restores a HyperLogLog from a snapshot.
func UnmarshalHLL(data []byte) (*HLL, error) {
	d := snapDecoder{buf: data}
	cfg, tick, err := d.header(kindHLL)
	if err != nil {
		return nil, err
	}
	m, err := d.u32()
	if err != nil {
		return nil, err
	}
	h, err := NewHLL(int(m), cfg)
	if err != nil {
		return nil, err
	}
	h.setTick(h.gc, tick)
	if err := d.marks(h.gc); err != nil {
		return nil, err
	}
	if err := d.words(h.regs.Words()); err != nil {
		return nil, err
	}
	return h, d.done()
}

// MarshalBinary snapshots the Count-Min sketch.
func (c *CM) MarshalBinary() ([]byte, error) {
	var e snapEncoder
	e.header(kindCM, c.cfg, c.tick)
	e.u32(uint32(c.counters.Len()))
	e.u32(uint32(c.grp.w))
	e.u32(uint32(c.fam.K()))
	e.u32(uint32(c.counters.Width()))
	e.marks(c.gc)
	e.words(c.counters.Words())
	return e.buf, nil
}

// UnmarshalCM restores a Count-Min sketch from a snapshot.
func UnmarshalCM(data []byte) (*CM, error) {
	d := snapDecoder{buf: data}
	cfg, tick, err := d.header(kindCM)
	if err != nil {
		return nil, err
	}
	n, err := d.u32()
	if err != nil {
		return nil, err
	}
	w, err := d.u32()
	if err != nil {
		return nil, err
	}
	k, err := d.u32()
	if err != nil {
		return nil, err
	}
	width, err := d.u32()
	if err != nil {
		return nil, err
	}
	c, err := NewCM(int(n), int(w), int(k), uint(width), cfg)
	if err != nil {
		return nil, err
	}
	c.setTick(c.gc, tick)
	if err := d.marks(c.gc); err != nil {
		return nil, err
	}
	if err := d.words(c.counters.Words()); err != nil {
		return nil, err
	}
	return c, d.done()
}

// MarshalBinary snapshots the MinHash pair.
func (mh *MH) MarshalBinary() ([]byte, error) {
	var e snapEncoder
	e.header(kindMH, mh.cfg, mh.tick)
	e.u32(uint32(mh.c1.Len()))
	e.marks(mh.g1)
	e.marks(mh.g2)
	e.words(mh.c1.Words())
	e.words(mh.c2.Words())
	return e.buf, nil
}

// UnmarshalMH restores a MinHash pair from a snapshot.
func UnmarshalMH(data []byte) (*MH, error) {
	d := snapDecoder{buf: data}
	cfg, tick, err := d.header(kindMH)
	if err != nil {
		return nil, err
	}
	m, err := d.u32()
	if err != nil {
		return nil, err
	}
	mh, err := NewMH(int(m), cfg)
	if err != nil {
		return nil, err
	}
	mh.setTick(mh.g1, tick)
	if err := d.marks(mh.g1); err != nil {
		return nil, err
	}
	if err := d.marks(mh.g2); err != nil {
		return nil, err
	}
	if err := d.words(mh.c1.Words()); err != nil {
		return nil, err
	}
	if err := d.words(mh.c2.Words()); err != nil {
		return nil, err
	}
	return mh, d.done()
}
