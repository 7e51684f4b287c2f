package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"she"
	"she/internal/core"
	"she/internal/wal"
)

// FuzzParseCommand hammers the wire-protocol parser with arbitrary
// request lines: it must never panic, and anything it accepts must
// satisfy the protocol's invariants (upper-cased name, no control
// bytes, bounded argument count).
func FuzzParseCommand(f *testing.F) {
	f.Add("PING")
	f.Add("sketch.create flows bloom bits=1048576 window=65536 shards=8")
	f.Add("SKETCH.INSERT flows alice bob 42\r\n")
	f.Add("SKETCH.QUERY flows carol\n")
	f.Add("  \t ")
	f.Add("-ERR not a command")
	f.Add("*3")
	f.Add(strings.Repeat("a ", 200))
	f.Add("PING\x00PONG")
	f.Add("k=v k=v k")

	f.Fuzz(func(t *testing.T, line string) {
		cmd, err := ParseCommand(line)
		if err != nil {
			return
		}
		if cmd.Name == "" {
			t.Fatalf("accepted command with empty name from %q", line)
		}
		if strings.ContainsFunc(cmd.Name, func(r rune) bool { return 'a' <= r && r <= 'z' }) {
			t.Fatalf("name %q not upper-cased", cmd.Name)
		}
		if len(cmd.Args) > MaxArgs-1 {
			t.Fatalf("accepted %d args from %q", len(cmd.Args), line)
		}
		for _, tok := range append([]string{cmd.Name}, cmd.Args...) {
			for i := 0; i < len(tok); i++ {
				if tok[i] <= 0x20 || tok[i] == 0x7f {
					t.Fatalf("token %q contains byte 0x%02x", tok, tok[i])
				}
			}
		}
		// Downstream helpers must be total on accepted commands.
		_, _ = ParseKV(cmd.Args)
		for _, a := range cmd.Args {
			_ = ParseKey(a)
			_ = ValidName(a)
		}
	})
}

// FuzzParseSnapshot hammers the one snapshot-file decoder below its
// seal: the harness seals each input, so mutations get past the CRC to
// the server envelope, the sharded framing and the core decoders. It
// must never panic and never hand back a half-built sketch; a SHE1 core
// header it reaches is refused by scheme; and an accepted file re-encodes
// to a fixed point after one round trip. Seeded with a file of each kind,
// each scheme-1 fixture as shed stored it, and their truncations.
func FuzzParseSnapshot(f *testing.F) {
	for i := range kinds {
		name := kinds[i].name
		file, err := os.ReadFile(filepath.Join("testdata", "sealed_"+name+snapshotExt))
		if err != nil {
			f.Fatal(err)
		}
		for _, sealed := range [][]byte{file, scheme1File(f, name)} {
			payload := sealed[wal.SealHeader:]
			f.Add(payload)
			f.Add(payload[:len(payload)/2])
			f.Add(payload[:envelopeLen+17+4+4])
		}
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		sk, err := parseSnapshot(seal(payload))
		if err != nil {
			if sk != nil {
				t.Fatalf("a refused file (%v) came back as a sketch", err)
			}
			if sh, ok := firstShard(payload); ok && len(sh) >= 4 && string(sh[:4]) == "SHE1" && !errors.Is(err, core.ErrHashScheme) {
				t.Fatalf("a SHE1 core header was not refused by scheme: %v", err)
			}
			return
		}
		if sk.structure == nil || sk.row == nil {
			t.Fatal("an accepted file came back as a half-built sketch")
		}
		once, err := sk.AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		again, err := parseSnapshot(seal(once))
		if err != nil {
			t.Fatalf("the re-encoding of an accepted file does not decode: %v", err)
		}
		if twice, err := again.AppendBinary(nil); err != nil || !bytes.Equal(once, twice) {
			t.Fatalf("re-encoding is not a fixed point after one round trip (err = %v)", err)
		}
		// An accepted sketch must be operable.
		sk.InsertBatch([]uint64{42, 43}, nil)
		_, _ = sk.Query(42)
		_, _ = sk.Cardinality()
	})
}

// firstShard returns the first shard of a file payload whose server
// envelope and sharded framing are whole — the first core header the
// decoders reach — and ok=false when they are not.
func firstShard(p []byte) (shard []byte, ok bool) {
	if len(p) < envelopeLen || string(p[:4]) != envelopeMagic || p[4] != envelopeVersion {
		return nil, false
	}
	p = p[envelopeLen:]
	if _, err := she.ShardedSnapshotKind(p); err != nil || len(p) < 17 {
		return nil, false
	}
	n := binary.LittleEndian.Uint32(p[13:])
	if n == 0 || n > 1<<20 {
		return nil, false
	}
	p = p[17:]
	for i := uint32(0); i < n; i++ {
		if len(p) < 4 || uint64(len(p)-4) < uint64(binary.LittleEndian.Uint32(p)) {
			return nil, false
		}
		l := binary.LittleEndian.Uint32(p)
		if i == 0 {
			shard = p[4 : 4+l]
		}
		p = p[4+l:]
	}
	return shard, len(p) == 0
}
