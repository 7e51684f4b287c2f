package she

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Sharded snapshot format: a thin wrapper around the per-shard core
// snapshots, so the concurrency-safe structures persist and restore
// exactly like the single-threaded ones. Everything is little-endian.
// Layout:
//
//	magic  [4]byte  "SHES"
//	kind   uint8    1=bloom 2=cm 3=hll
//	salt   uint64   shard-routing salt
//	shards uint32   shard count P
//	per shard: uint32 length + that shard's snapshot (internal/core)
//
// AppendBinary writes the whole snapshot into the caller's buffer in one
// pass: it reserves a shard's length word, appends the shard behind it
// and then fills the length in. WriteBinary is the same pass, except
// that it writes the buffer out after every shard and reuses it, so no
// more than one shard's encoding is held at once. Both lock each shard
// while that shard is encoded, so every shard's snapshot is internally
// consistent; the snapshot as a whole is shard-sequential (concurrent
// writers may land between shards). A restored structure routes every key to the same
// shard and answers every per-key query exactly as the original would.
//
// This format carries no checksum of its own: it trusts its bytes, and
// a bit flip in a length field could misalign every later shard.
// Durable consumers must wrap it in an integrity envelope — shed seals
// every snapshot file with internal/wal's CRC32C envelope, around its
// own "SHED" header, and verifies it before these bytes are ever parsed.

const shardedMagic = "SHES"

// Sharded structure tags.
const (
	shardedKindBloom byte = iota + 1
	shardedKindCM
	shardedKindHLL
)

var errShardedSnapshot = errors.New("she: malformed sharded snapshot")

// ShardedSnapshotKind reports which sharded structure a snapshot holds
// ("bloom", "cm" or "hll") without decoding its payload.
func ShardedSnapshotKind(data []byte) (string, error) {
	if len(data) < 5 || string(data[:4]) != shardedMagic {
		return "", errShardedSnapshot
	}
	switch data[4] {
	case shardedKindBloom:
		return "bloom", nil
	case shardedKindCM:
		return "cm", nil
	case shardedKindHLL:
		return "hll", nil
	}
	return "", fmt.Errorf("she: unknown sharded snapshot kind %d", data[4])
}

func unmarshalSharded(wantKind byte, data []byte) (salt uint64, shards [][]byte, err error) {
	kind, err := ShardedSnapshotKind(data)
	if err != nil {
		return 0, nil, err
	}
	if data[4] != wantKind {
		return 0, nil, fmt.Errorf("she: sharded snapshot holds kind %q", kind)
	}
	data = data[5:]
	if len(data) < 12 {
		return 0, nil, errShardedSnapshot
	}
	salt = binary.LittleEndian.Uint64(data)
	p := binary.LittleEndian.Uint32(data[8:])
	data = data[12:]
	if p == 0 || p > 1<<20 {
		return 0, nil, fmt.Errorf("she: sharded snapshot has implausible shard count %d", p)
	}
	shards = make([][]byte, 0, p)
	for i := uint32(0); i < p; i++ {
		if len(data) < 4 {
			return 0, nil, errShardedSnapshot
		}
		n := binary.LittleEndian.Uint32(data)
		data = data[4:]
		if uint32(len(data)) < n {
			return 0, nil, errShardedSnapshot
		}
		shards = append(shards, data[:n])
		data = data[n:]
	}
	if len(data) != 0 {
		return 0, nil, fmt.Errorf("she: %d trailing bytes in sharded snapshot", len(data))
	}
	return salt, shards, nil
}

// MarshalBinary snapshots the structure: the routing salt plus every
// shard's full state.
func (s *sharded[T]) MarshalBinary() ([]byte, error) { return s.AppendBinary(nil) }

// AppendBinary appends MarshalBinary's snapshot to dst.
func (s *sharded[T]) AppendBinary(dst []byte) ([]byte, error) { return s.appendBinary(dst, nil) }

// WriteBinary writes MarshalBinary's snapshot to w, encoding it into
// buf (behind what buf already holds) one shard at a time; it returns
// buf, emptied, for reuse.
func (s *sharded[T]) WriteBinary(w io.Writer, buf []byte) ([]byte, error) {
	return s.appendBinary(buf, w)
}

// appendBinary appends the snapshot: the kind tag and routing salt,
// then every shard behind its length word. A shard is encoded in place,
// under its lock, and its length filled in after. With a spill writer,
// dst is written to it after every shard and emptied.
func (s *sharded[T]) appendBinary(dst []byte, spill io.Writer) ([]byte, error) {
	dst = append(dst, shardedMagic...)
	dst = append(dst, s.kind)
	dst = binary.LittleEndian.AppendUint64(dst, s.salt)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s.shards)))
	for i := range s.shards {
		at := len(dst)
		dst = append(dst, 0, 0, 0, 0)
		sh := &s.shards[i]
		sh.mu.Lock()
		var err error
		dst, err = sh.s.AppendBinary(dst)
		sh.mu.Unlock()
		if err != nil {
			return nil, err
		}
		binary.LittleEndian.PutUint32(dst[at:], uint32(len(dst)-at-4))
		if spill != nil {
			if _, err := spill.Write(dst); err != nil {
				return nil, err
			}
			dst = dst[:0]
		}
	}
	return dst, nil
}

// unmarshalShards restores a structure of the given kind, decoding
// each shard with decode.
func unmarshalShards[T shardSketch](kind byte, data []byte, decode func([]byte) (T, error)) (sharded[T], error) {
	salt, blobs, err := unmarshalSharded(kind, data)
	if err != nil {
		return sharded[T]{}, err
	}
	s := makeSharded[T](kind, len(blobs), salt)
	for i, b := range blobs {
		if s.shards[i].s, err = decode(b); err != nil {
			return sharded[T]{}, fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return s, nil
}

// UnmarshalShardedBloomFilter restores a filter from a snapshot.
func UnmarshalShardedBloomFilter(data []byte) (*ShardedBloomFilter, error) {
	s, err := unmarshalShards(shardedKindBloom, data, UnmarshalBloomFilter)
	if err != nil {
		return nil, err
	}
	return &ShardedBloomFilter{s}, nil
}

// UnmarshalShardedCountMin restores a sketch from a snapshot.
func UnmarshalShardedCountMin(data []byte) (*ShardedCountMin, error) {
	s, err := unmarshalShards(shardedKindCM, data, UnmarshalCountMin)
	if err != nil {
		return nil, err
	}
	return &ShardedCountMin{s}, nil
}

// UnmarshalShardedHyperLogLog restores an estimator from a snapshot.
func UnmarshalShardedHyperLogLog(data []byte) (*ShardedHyperLogLog, error) {
	s, err := unmarshalShards(shardedKindHLL, data, UnmarshalHyperLogLog)
	if err != nil {
		return nil, err
	}
	return &ShardedHyperLogLog{s}, nil
}
