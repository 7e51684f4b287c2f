package server

import (
	"encoding/binary"
	"math/bits"

	"she/internal/hashing"
)

// ScanLine is the tokenizer of shed's fast path: one pass over a
// request line (LF stripped) that serves SKETCH.INSERT, MINSERT,
// SKETCH.QUERY and SKETCH.CARD. It returns the canonical verb, the
// sketch name as a view into line, and the line's keys appended to
// keys — each exactly the key ParseKey gives the token. ok=false, with
// keys returned as passed, is every line the slow path owns: another
// verb, a wrong argument count, more than MaxArgs tokens, a control
// byte or a byte ≥ 0x7f anywhere. It keeps no state, allocates only to
// grow keys, and reads no byte past len(line).
func ScanLine(line []byte, keys []uint64) (verb string, name []byte, _ []uint64, ok bool) {
	vi, name, keys, ok := scanLine(line, keys)
	if ok {
		verb = verbs[vi].name
	}
	return verb, name, keys, ok
}

// isSep reports whether c separates tokens: the ASCII bytes
// strings.Fields skips, less the LF that ends a line.
func isSep(c byte) bool {
	return c == ' ' || c-'\t' < 5 && c != '\n'
}

// token returns the bounds of the token that starts at or after i:
// separators are skipped, then printable bytes taken up to the next
// separator or the end of line. ok=false on no token or a byte
// ParseCommand rejects or may split at (control, DEL, ≥ 0x80).
func token(line []byte, i int) (start, end int, ok bool) {
	for i < len(line) && isSep(line[i]) {
		i++
	}
	for start = i; i < len(line); i++ {
		if c := line[i]; c <= ' ' || c >= 0x7f {
			if !isSep(c) {
				return 0, 0, false
			}
			break
		}
	}
	return start, i, i > start
}

var pow10 = [9]uint64{1, 10, 100, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8}

// digits8 converts eight ASCII digits, the first in the low byte, to
// their value: adjacent digits, then pairs, then fours are combined by
// one multiply each.
func digits8(w uint64) uint64 {
	w = (w & 0x0f0f0f0f0f0f0f0f) * (10<<8 + 1) >> 8
	w = (w & 0x00ff00ff00ff00ff) * (100<<16 + 1) >> 16
	return (w & 0x0000ffff0000ffff) * (10000<<32 + 1) >> 32
}

// shiftIn returns v·p + d, and over with whatever of that did not fit
// 64 bits ORed in.
func shiftIn(v, over, p, d uint64) (uint64, uint64) {
	hi, lo := bits.Mul64(v, p)
	v, carry := bits.Add64(lo, d, 0)
	return v, over | hi | carry
}

// nonDigits marks, in bit 7 of each byte, the bytes of the
// little-endian word w that are not ASCII digits. In x = w ^ "00000000"
// a digit byte is 0…9, so adding 0x76 to its low seven bits sets bit 7
// exactly when it is not one (no carry leaves a byte).
func nonDigits(w uint64) uint64 {
	x := w ^ 0x3030303030303030
	return (((x & 0x7f7f7f7f7f7f7f7f) + 0x7676767676767676) | x) & 0x8080808080808080
}

// scanUint reads the decimal run that starts at line[i] as
// little-endian 8-byte words and returns its value and end. ok means it
// is a whole token strconv.ParseUint accepts: at least one digit, ended
// by a separator or the line, fitting a uint64.
//
// A run of 16–23 digits with 24 bytes of line from i — the shape of a
// hashed or random 64-bit key — is converted in straight-line code: two
// all-digit words, then the digits that lead the third. Any other run
// takes the loop, a word at a time: m == 0 is eight digits, the branch
// a predictor learns, so the next load does not wait for this word's
// arithmetic. Otherwise the trailing-zero count of m is the number of
// digits k ahead of the first other byte; shifted to the top of the
// word, with the bytes vacated below them reading as '0', they convert
// like eight. The last fewer-than-8 bytes are loaded as the word that
// ends at len(line), shifted down: the zero bytes that fill it are not
// digits, and no byte past the line is read (line holds a verb, a
// separator and a name, so it is never shorter than a word). The value
// is carried at 128 bits into a sticky overflow flag; a prefix of a
// number never exceeds it, so the flag is clear exactly when the run
// fits. Both ways return the same (v, j, ok) for every input.
func scanUint(line []byte, i int) (v uint64, j int, ok bool) {
	var over uint64
	n := len(line)
	if i+24 <= n {
		w0, w1, w2 := binary.LittleEndian.Uint64(line[i:]), binary.LittleEndian.Uint64(line[i+8:]), binary.LittleEndian.Uint64(line[i+16:])
		if m := nonDigits(w2); nonDigits(w0)|nonDigits(w1) == 0 && m != 0 {
			k := bits.TrailingZeros64(m) >> 3 // w2<<64 is 0: no digits
			v, over = shiftIn(digits8(w0)*1e8+digits8(w1), 0, pow10[k], digits8(w2<<(64-8*uint(k))))
			return v, i + 16 + k, over == 0 && isSep(line[i+16+k])
		}
	}
	for j = i; ; j += 8 {
		var w uint64
		if j+8 <= n {
			w = binary.LittleEndian.Uint64(line[j:])
		} else {
			w = binary.LittleEndian.Uint64(line[n-8:]) >> (8 * uint(8-(n-j)))
		}
		m := nonDigits(w)
		if m == 0 {
			v, over = shiftIn(v, over, 1e8, digits8(w))
			continue
		}
		if k := bits.TrailingZeros64(m) >> 3; k > 0 {
			v, over = shiftIn(v, over, pow10[k], digits8(w<<(64-8*uint(k))))
			j += k
		}
		return v, j, j > i && over == 0 && (j == n || isSep(line[j]))
	}
}

// scanLine is ScanLine with the verb as its index in the verb table,
// whose rows name the four it knows. Verb and name are walked a byte at a time; a key is scanUint's, or, when
// that is not what strconv.ParseUint accepts, the hash ParseKey gives
// the token.
func scanLine(line []byte, keys []uint64) (vi int, name []byte, _ []uint64, ok bool) {
	start, i, ok := token(line, 0)
	if !ok {
		return 0, nil, keys, false
	}
	maxKeys := MaxArgs - 2
	switch verb := line[start:i]; {
	case eqVerb(verb, verbs[verbMinsert].name):
		vi = verbMinsert
	case eqVerb(verb, verbs[verbInsert].name):
		vi = verbInsert
	case eqVerb(verb, verbs[verbQuery].name):
		vi, maxKeys = verbQuery, 1
	case eqVerb(verb, verbs[verbCard].name):
		vi, maxKeys = verbCard, 0
	default:
		return 0, nil, keys, false
	}
	if start, i, ok = token(line, i); !ok {
		return 0, nil, keys, false
	}
	name = line[start:i]
	out := keys
	for {
		for i < len(line) && isSep(line[i]) {
			i++
		}
		if i == len(line) {
			break
		}
		if len(out)-len(keys) == maxKeys {
			return 0, nil, keys, false
		}
		v, j, ok := scanUint(line, i)
		if !ok {
			if _, j, ok = token(line, i); !ok {
				return 0, nil, keys, false
			}
			v = hashing.BOBHash64(line[i:j], 0x5e)
		}
		out = append(out, v)
		i = j
	}
	if len(out)-len(keys) < min(maxKeys, 1) {
		return 0, nil, keys, false
	}
	return vi, name, out, true
}
