// Package fastdiv provides division and modulo by a fixed 64-bit
// divisor using a precomputed reciprocal and 128-bit multiplication —
// the libdivide/Granlund-Montgomery trick. The SHE framework once
// divided by Tcycle on every cell touch (mark parity and age were
// phase/Tcycle and phase mod Tcycle), which motivated this module as a
// candidate for narrowing the SHE-vs-ideal insertion gap of Fig. 11.
//
// internal/core does not use it: its group clock now splits the time
// once per operation — and not at all on the count-based insert path —
// so there is no per-cell division left to replace, and on recent x86
// cores whose integer dividers pipeline independent operations (see
// BenchmarkHardwareDiv vs BenchmarkFastDiv) the reciprocal is not
// faster than / and % anyway. The package remains for div-weak targets
// and as a verified building block; its property tests pin exact
// equivalence with the hardware operators over the full uint64 domain.
package fastdiv

import "math/bits"

// Divisor divides by a fixed uint64 value.
type Divisor struct {
	d uint64
	m uint64 // ⌊(2^64−1)/d⌋, the truncated reciprocal
}

// New returns a Divisor for d. Panics if d is zero.
func New(d uint64) Divisor {
	if d == 0 {
		panic("fastdiv: zero divisor")
	}
	return Divisor{d: d, m: ^uint64(0) / d}
}

// D returns the divisor value.
func (v Divisor) D() uint64 { return v.d }

// DivMod returns n/d and n%d.
//
// The estimate q̂ = hi64(m·n) with m = ⌊(2^64−1)/d⌋ satisfies
// q−2 ≤ q̂ ≤ q, so at most two fix-up steps correct it; each step is a
// compare-and-subtract, far cheaper than a hardware divide.
func (v Divisor) DivMod(n uint64) (q, r uint64) {
	q, _ = bits.Mul64(v.m, n)
	r = n - q*v.d
	for r >= v.d {
		q++
		r -= v.d
	}
	return q, r
}

// Div returns n / d.
func (v Divisor) Div(n uint64) uint64 {
	q, _ := v.DivMod(n)
	return q
}

// Mod returns n % d.
func (v Divisor) Mod(n uint64) uint64 {
	_, r := v.DivMod(n)
	return r
}
