package server

import (
	"encoding/binary"
	"fmt"
	"slices"

	"she/internal/wal"
)

// The insert record: what an insert is in the WAL and on the REC
// stream. One record carries keys of one sketch in arrival order,
//
//	insertTag · len(name) · name · n × little-endian uint64
//
// with n read off the record's length. Every other record is a
// protocol-shaped text line, SKETCH.CREATE or SKETCH.DROP; neither can
// begin with insertTag, a control byte ParseCommand rejects and
// strings.Fields does not skip as space, so the first byte tells the
// two apart and neither decoder accepts the other's records. Framing
// (length, CRC32C) is wal.EncodeRecord's, the same for both. Decimal
// INSERT/MINSERT lines, which older binaries logged, are refused by name
// (wal_replay_skipped on replay; a follower's burst fails on one).
const insertTag = 0x01

// maxNameLen is the longest sketch name (ValidName); it fits the
// record's one length byte.
const maxNameLen = 128

// A batch holds one group per sketch and under batchMaxKeys keys before
// a line adds its MaxArgs-2, so a sketch's run in a batch is one record:
// this does not compile if that could pass wal.MaxRecordBytes.
const _ = uint(wal.MaxRecordBytes - (2 + maxNameLen + 8*(batchMaxKeys+MaxArgs-2)))

// isInsertRecord reports whether rec is an insert record rather than a
// text line.
func isInsertRecord(rec []byte) bool {
	return len(rec) > 0 && rec[0] == insertTag
}

// AppendInsertRecord appends to dst the insert record of keys for the
// named sketch: the payload shed frames with wal.EncodeRecord into its
// log and onto the REC stream. The name is at most 128 bytes (ValidName)
// and the caller keeps the record within wal.MaxRecordBytes, which is
// (wal.MaxRecordBytes-2-len(name))/8 keys.
func AppendInsertRecord(dst, name []byte, keys []uint64) []byte {
	dst = slices.Grow(dst, 2+len(name)+8*len(keys))
	dst = append(dst, insertTag, byte(len(name)))
	dst = append(dst, name...)
	for _, k := range keys {
		dst = binary.LittleEndian.AppendUint64(dst, k)
	}
	return dst
}

// decodeInsertRecord splits an insert record into the sketch name, a
// view into rec, and its keys, appended to keys[:0]. It rejects
// anything but the tag, a name length of 1…maxNameLen that fits, and a
// whole number of keys after it.
func decodeInsertRecord(rec []byte, keys []uint64) (name []byte, _ []uint64, err error) {
	if len(rec) < 2 || rec[0] != insertTag {
		return nil, nil, fmt.Errorf("not an insert record: %.16q", rec)
	}
	n := int(rec[1])
	if n == 0 || n > maxNameLen || len(rec) < 2+n {
		return nil, nil, fmt.Errorf("insert record: name length %d in %d bytes", n, len(rec))
	}
	body := rec[2+n:]
	if len(body)%8 != 0 {
		return nil, nil, fmt.Errorf("insert record: %d key bytes, not a multiple of 8", len(body))
	}
	keys = slices.Grow(keys[:0], len(body)/8)
	for ; len(body) > 0; body = body[8:] {
		keys = append(keys, binary.LittleEndian.Uint64(body))
	}
	return rec[2 : 2+n], keys, nil
}
