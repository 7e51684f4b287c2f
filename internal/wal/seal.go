package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
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
// once the payload is: a writer reserves SealHeader bytes and puts the
// payload behind them. In memory, Seal fills the header in over the
// reserved bytes; on disk, WriteSealed streams the payload and writes
// the header over the reservation last, before the file is synced and
// renamed into place.
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
	appendSealHeader(buf[:0], crc32.Checksum(payload, castagnoli), uint64(len(payload)))
	return buf
}

// appendSealHeader appends the header of a payload of n bytes whose
// CRC32C is crc.
func appendSealHeader(dst []byte, crc uint32, n uint64) []byte {
	dst = append(dst, sealMagic...)
	dst = append(dst, sealVersion)
	dst = binary.LittleEndian.AppendUint32(dst, crc)
	return binary.LittleEndian.AppendUint64(dst, n)
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

// WriteSealed replaces path crash-safely with a sealed file whose
// payload is what write writes to the io.Writer it is handed, in as
// many pieces as it likes: the header's bytes are reserved first, the
// payload streams behind them while its CRC32C and length accumulate,
// and the header is written over the reservation last. Then the file
// is synced, renamed over path and the directory synced, as
// writeFileAtomic does, so no one ever sees an unsealed file at path.
func WriteSealed(fsys failfs.FS, path string, perm fs.FileMode, write func(io.Writer) error) error {
	return writeFileAtomic(fsys, path, perm, func(f failfs.File) error {
		var h [SealHeader]byte
		if _, err := f.Write(h[:]); err != nil {
			return err
		}
		pw := payloadWriter{f: f}
		if err := write(&pw); err != nil {
			return err
		}
		_, err := f.WriteAt(appendSealHeader(h[:0], pw.crc, pw.n), 0)
		return err
	})
}

// payloadWriter writes a sealed file's payload through to the file and
// keeps its CRC32C and length for the header.
type payloadWriter struct {
	f   failfs.File
	crc uint32
	n   uint64
}

func (w *payloadWriter) Write(p []byte) (int, error) {
	n, err := w.f.Write(p)
	w.crc = crc32.Update(w.crc, castagnoli, p[:n])
	w.n += uint64(n)
	return n, err
}

// writeFileAtomic replaces path crash-safely with what write writes to
// a temporary file in the same directory: fsync it, rename it over
// path, and fsync the directory. A crash at any point leaves either
// the old file or the new one, never a torn mix.
func writeFileAtomic(fsys failfs.FS, path string, perm fs.FileMode, write func(failfs.File) error) error {
	tmp := path + ".tmp"
	f, err := fsys.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, perm)
	if err != nil {
		return err
	}
	err = write(f)
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
