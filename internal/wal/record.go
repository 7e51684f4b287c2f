package wal

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
)

// Record framing: [uint32 length][uint32 crc32c][payload]. The length
// counts payload bytes only; the CRC (Castagnoli, the checksum with
// hardware support on both amd64 and arm64) covers the payload. A
// corrupted length field either exceeds the remaining bytes (reads as
// a torn record) or shifts the CRC window (reads as corruption) — both
// are detected, neither yields a wrong payload.
const (
	recordHeaderLen = 8
	// MaxRecordBytes bounds a single record. Writers split at it — shed's
	// insert record carries one sketch's keys of a whole batch, 8 bytes
	// each, and starts a new record here — so a longer length field is
	// corruption, not data.
	MaxRecordBytes = 1 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt reports bytes that claim to be a complete record but fail
// validation — a CRC mismatch, a zero or oversized length.
var ErrCorrupt = errors.New("wal: corrupt record")

// errTorn reports a record cut off by the end of the buffer: the
// header or payload extends past the available bytes. At the tail of
// the last segment this is the normal signature of a crash mid-append.
var errTorn = errors.New("wal: torn record")

// EncodeRecord appends one framed record for payload to buf and
// returns the extended slice.
func EncodeRecord(buf, payload []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(payload, castagnoli))
	return append(buf, payload...)
}

// DecodeRecord parses the first record in b, returning its payload and
// the number of bytes consumed. The payload aliases b; callers that
// keep it must copy. Errors are errTorn (b ends mid-record) or
// ErrCorrupt (invalid length or CRC mismatch).
func DecodeRecord(b []byte) (payload []byte, n int, err error) {
	if len(b) < recordHeaderLen {
		return nil, 0, errTorn
	}
	length := binary.LittleEndian.Uint32(b)
	crc := binary.LittleEndian.Uint32(b[4:])
	if length == 0 || length > MaxRecordBytes {
		return nil, 0, ErrCorrupt
	}
	if int(length) > len(b)-recordHeaderLen {
		return nil, 0, errTorn
	}
	payload = b[recordHeaderLen : recordHeaderLen+int(length)]
	if crc32.Checksum(payload, castagnoli) != crc {
		return nil, 0, ErrCorrupt
	}
	return payload, recordHeaderLen + int(length), nil
}
