package bitpack

// Packed is an array of n fixed-width unsigned counters (1–64 bits
// each) stored contiguously in 64-bit words. Counters may straddle a
// word boundary; Get/Set handle the split. The SHE counter sketches
// (SHE-CM with saturating counters, SHE-HLL with 5-bit ranks, SHE-MH
// with 24-bit signatures) all sit on a Packed.
type Packed struct {
	words []uint64
	n     int
	width uint
	max   uint64
}

// NewPacked returns an array of n counters of the given bit width,
// all zero.
func NewPacked(n int, width uint) *Packed {
	if n <= 0 {
		panic("bitpack: packed array size must be positive")
	}
	if width == 0 || width > 64 {
		panic("bitpack: counter width must be in [1, 64]")
	}
	totalBits := uint64(n) * uint64(width)
	words := int((totalBits + wordBits - 1) / wordBits)
	p := &Packed{words: make([]uint64, words+1), n: n, width: width}
	if width == 64 {
		p.max = ^uint64(0)
	} else {
		p.max = 1<<width - 1
	}
	return p
}

// Len returns the number of counters.
func (p *Packed) Len() int { return p.n }

// Max returns the saturation value (all-ones for the width).
func (p *Packed) Max() uint64 { return p.max }

// Get returns counter i.
func (p *Packed) Get(i int) uint64 {
	bit := uint64(i) * uint64(p.width)
	w, off := bit/wordBits, uint(bit%wordBits)
	v := p.words[w] >> off
	if off+p.width > wordBits {
		v |= p.words[w+1] << (wordBits - off)
	}
	return v & p.max
}

// Set stores v (truncated to the width) into counter i.
func (p *Packed) Set(i int, v uint64) {
	v &= p.max
	bit := uint64(i) * uint64(p.width)
	w, off := bit/wordBits, uint(bit%wordBits)
	p.words[w] = p.words[w]&^(p.max<<off) | v<<off
	if off+p.width > wordBits {
		rem := wordBits - off
		p.words[w+1] = p.words[w+1]&^(p.max>>rem) | v>>rem
	}
}

// AddSat adds delta to counter i, saturating at Max.
func (p *Packed) AddSat(i int, delta uint64) {
	v := p.Get(i)
	if delta > p.max-v {
		p.Set(i, p.max)
		return
	}
	p.Set(i, v+delta)
}

// ResetRange zeroes counters [from, to).
func (p *Packed) ResetRange(from, to int) {
	if from < 0 || to > p.n || from > to {
		panic("bitpack: reset range out of bounds")
	}
	for i := from; i < to; i++ {
		p.Set(i, 0)
	}
}

// Reset zeroes every counter.
func (p *Packed) Reset() {
	for i := range p.words {
		p.words[i] = 0
	}
}

// MemoryBits returns the payload size in bits (n × width).
func (p *Packed) MemoryBits() int { return p.n * int(p.width) }

// Words exposes the backing word slice for serialization; callers must
// not change its length.
func (p *Packed) Words() []uint64 { return p.words }
