package core

import (
	"errors"
	"fmt"
	"math"
)

// Default parameter values from §7.1 of the paper.
const (
	// DefaultAlphaTwoSided is the default α for the two-sided
	// estimators SHE-BM, SHE-HLL and SHE-MH.
	DefaultAlphaTwoSided = 0.2
	// DefaultAlphaCM is the default α for SHE-CM.
	DefaultAlphaCM = 1.0
	// DefaultAlphaBF is the default α for SHE-BF with 8 hash
	// functions (Eq. 2 of the paper gives ≈ 3).
	DefaultAlphaBF = 3.0
	// DefaultGroupSize is the default cells-per-group w for the
	// bit/counter array sketches (SHE-BF, SHE-BM, SHE-CM).
	DefaultGroupSize = 64
	// DefaultHashes is the default number of hash functions for
	// SHE-BF and SHE-CM.
	DefaultHashes = 8
)

// WindowConfig carries the sliding-window parameters shared by every
// SHE structure.
type WindowConfig struct {
	// N is the sliding-window size in ticks (items for count-based
	// windows). Must be positive.
	N uint64
	// Alpha is the cleaning-slack ratio α = (Tcycle−N)/N. Must be
	// positive; the cleaning cycle is Tcycle = round((1+α)·N).
	Alpha float64
	// Beta sets the lower edge of the legal age range [β·N, Tcycle)
	// used by the two-sided estimators. Zero means the analysis
	// default β = max(0, 1−α). One-sided sketches ignore it and
	// always require age ≥ N.
	Beta float64
	// Seed derives every hash function used by the structure.
	Seed uint64
}

// Validate checks the configuration and returns a descriptive error
// for the first violated constraint.
func (c WindowConfig) Validate() error {
	if c.N == 0 {
		return errors.New("core: window size N must be positive")
	}
	if !(c.Alpha > 0) || math.IsInf(c.Alpha, 0) || math.IsNaN(c.Alpha) {
		return fmt.Errorf("core: alpha must be a positive finite number, got %v", c.Alpha)
	}
	if c.Beta < 0 || c.Beta >= 1 {
		return fmt.Errorf("core: beta must lie in [0, 1), got %v", c.Beta)
	}
	if (1+c.Alpha)*float64(c.N) >= 1<<63 {
		return fmt.Errorf("core: Tcycle=(1+%v)·%d must stay below 2^63", c.Alpha, c.N)
	}
	if c.Tcycle() <= c.N {
		return fmt.Errorf("core: Tcycle=%d must exceed N=%d (alpha too small for this N)", c.Tcycle(), c.N)
	}
	return nil
}

// Tcycle returns the cleaning-cycle length round((1+α)·N).
func (c WindowConfig) Tcycle() uint64 {
	return uint64(math.Round((1 + c.Alpha) * float64(c.N)))
}

// legalFloor returns the lower edge of the two-sided legal age range,
// β·N with the β=1−α default applied.
func (c WindowConfig) legalFloor() uint64 {
	beta := c.Beta
	if beta == 0 {
		beta = 1 - c.Alpha
		if beta < 0 {
			beta = 0
		}
	}
	return uint64(math.Floor(beta * float64(c.N)))
}
