package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"

	"she/internal/failfs"
)

// Sealed snapshot envelope: every snapshot file shed writes is wrapped
// in a small header verified on load, so a torn or bit-flipped file is
// detected, never restored.
//
//	offset  size  field
//	0       4     magic "SHSN"
//	4       1     format version (1)
//	5       4     CRC32C of payload (little-endian)
//	9       8     payload length (little-endian)
//	17      —     payload
//
// The header comes first although the CRC and the length are known only
// once the payload is: a writer reserves SealHeader bytes, appends the
// payload behind them, and Seal fills the header in. The file is one
// buffer, written once.
const (
	sealMagic   = "SHSN"
	sealVersion = 1
	// SealHeader is the length of the envelope's header.
	SealHeader = 4 + 1 + 4 + 8
)

// ErrCorruptSnapshot reports data that is not a whole, intact envelope:
// no magic, truncated header, length mismatch, unsupported version, or
// CRC failure.
var ErrCorruptSnapshot = errors.New("wal: corrupt snapshot")

// Seal fills in the envelope header, buf[:SealHeader], for the payload
// behind it, buf[SealHeader:], and returns buf.
func Seal(buf []byte) []byte {
	payload := buf[SealHeader:]
	h := append(buf[:0], sealMagic...)
	h = append(h, sealVersion)
	h = binary.LittleEndian.AppendUint32(h, crc32.Checksum(payload, castagnoli))
	binary.LittleEndian.AppendUint64(h, uint64(len(payload)))
	return buf
}

// Unseal verifies the envelope and returns the payload (aliasing data).
func Unseal(data []byte) ([]byte, error) {
	if len(data) < 4 || string(data[:4]) != sealMagic {
		return nil, fmt.Errorf("%w: not sealed (no %q magic)", ErrCorruptSnapshot, sealMagic)
	}
	if len(data) < SealHeader {
		return nil, fmt.Errorf("%w: truncated header (%d bytes)", ErrCorruptSnapshot, len(data))
	}
	if v := data[4]; v != sealVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCorruptSnapshot, v)
	}
	crc := binary.LittleEndian.Uint32(data[5:])
	length := binary.LittleEndian.Uint64(data[9:])
	payload := data[SealHeader:]
	if uint64(len(payload)) != length {
		return nil, fmt.Errorf("%w: payload is %d bytes, envelope says %d", ErrCorruptSnapshot, len(payload), length)
	}
	if crc32.Checksum(payload, castagnoli) != crc {
		return nil, fmt.Errorf("%w: CRC mismatch", ErrCorruptSnapshot)
	}
	return payload, nil
}

// WriteFileAtomic replaces path with data crash-safely: write to a
// temporary file in the same directory, fsync it, rename it over
// path, and fsync the directory. A crash at any point leaves either
// the old file or the new one, never a torn mix.
func WriteFileAtomic(fsys failfs.FS, path string, data []byte, perm fs.FileMode) error {
	tmp := path + ".tmp"
	f, err := fsys.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, perm)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.Rename(tmp, path)
	}
	if err != nil {
		fsys.Remove(tmp) // best effort; leftovers are also swept at checkpoint
		return err
	}
	return fsys.SyncDir(filepath.Dir(path))
}

// quarantineExt marks a file Quarantine set aside; removeDir spares it.
const quarantineExt = ".corrupt"

// Quarantine renames a damaged file to <path>.corrupt so startup can
// proceed without it while the bytes stay available for forensics. An
// earlier quarantine of the same path is overwritten — the newest
// corpse wins. It returns the quarantine path.
func Quarantine(fsys failfs.FS, path string) (string, error) {
	q := path + quarantineExt
	if err := fsys.Rename(path, q); err != nil {
		return "", err
	}
	return q, fsys.SyncDir(filepath.Dir(path))
}
