package she

import "she/internal/core"

// Snapshot support: every structure implements encoding.BinaryMarshaler
// and has a matching Unmarshal constructor; the three a sharded wrapper
// holds also append their snapshot to a caller's buffer (AppendBinary,
// the shape of encoding.BinaryAppender), which is how a sharded snapshot
// lays its shards down in place. A restored structure
// answers every future operation exactly as the original would —
// snapshots capture the window clock and cleaning marks, not just the
// cells — so sketches can be checkpointed, shipped between processes,
// or persisted across restarts mid-window.

// MarshalBinary snapshots the filter's full state.
func (f *BloomFilter) MarshalBinary() ([]byte, error) { return f.AppendBinary(nil) }

// AppendBinary appends a snapshot of the filter's full state to dst.
func (f *BloomFilter) AppendBinary(dst []byte) ([]byte, error) { return f.inner.AppendBinary(dst) }

// UnmarshalBloomFilter restores a filter from a snapshot.
func UnmarshalBloomFilter(data []byte) (*BloomFilter, error) {
	inner, err := core.UnmarshalBF(data)
	if err != nil {
		return nil, err
	}
	return &BloomFilter{inner: inner}, nil
}

// MarshalBinary snapshots the bitmap's full state.
func (b *Bitmap) MarshalBinary() ([]byte, error) { return b.inner.AppendBinary(nil) }

// UnmarshalBitmap restores a bitmap from a snapshot.
func UnmarshalBitmap(data []byte) (*Bitmap, error) {
	inner, err := core.UnmarshalBM(data)
	if err != nil {
		return nil, err
	}
	return &Bitmap{inner: inner}, nil
}

// MarshalBinary snapshots the estimator's full state.
func (h *HyperLogLog) MarshalBinary() ([]byte, error) { return h.AppendBinary(nil) }

// AppendBinary appends a snapshot of the estimator's full state to dst.
func (h *HyperLogLog) AppendBinary(dst []byte) ([]byte, error) { return h.inner.AppendBinary(dst) }

// UnmarshalHyperLogLog restores an estimator from a snapshot.
func UnmarshalHyperLogLog(data []byte) (*HyperLogLog, error) {
	inner, err := core.UnmarshalHLL(data)
	if err != nil {
		return nil, err
	}
	return &HyperLogLog{inner: inner}, nil
}

// MarshalBinary snapshots the sketch's full state.
func (c *CountMin) MarshalBinary() ([]byte, error) { return c.AppendBinary(nil) }

// AppendBinary appends a snapshot of the sketch's full state to dst.
func (c *CountMin) AppendBinary(dst []byte) ([]byte, error) { return c.inner.AppendBinary(dst) }

// UnmarshalCountMin restores a sketch from a snapshot.
func UnmarshalCountMin(data []byte) (*CountMin, error) {
	inner, err := core.UnmarshalCM(data)
	if err != nil {
		return nil, err
	}
	return &CountMin{inner: inner}, nil
}

// MarshalBinary snapshots both signature arrays and the shared clock.
func (m *MinHash) MarshalBinary() ([]byte, error) { return m.inner.AppendBinary(nil) }

// UnmarshalMinHash restores a pair from a snapshot.
func UnmarshalMinHash(data []byte) (*MinHash, error) {
	inner, err := core.UnmarshalMH(data)
	if err != nil {
		return nil, err
	}
	return &MinHash{inner: inner}, nil
}
