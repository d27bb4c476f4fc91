// Package bccrypto implements the cryptographic primitives BcWAN needs on
// top of the Go standard library: RIPEMD-160 and base58check for blockchain
// addresses, the AES-256-CBC message frame of the paper's Fig. 4, and
// RSA-512 (built from scratch, because crypto/rsa refuses keys under 1024
// bits) for the ephemeral fair-exchange keys and node signatures.
//
// RSA-512 is intentionally weak; the paper (§6) accepts this because the
// cost of factoring a 512-bit modulus exceeds the micro-payment value each
// key protects, and the LoRa payload budget cannot fit larger keys.
package bccrypto

import "encoding/binary"

// RIPEMD-160, implemented from the original Dobbertin/Bosselaers/Preneel
// specification. Used for HASH160 = RIPEMD160(SHA256(x)), the address and
// script-hash digest of the blockchain substrate.

// Ripemd160Size is the digest size in bytes.
const Ripemd160Size = 20

const ripemd160BlockSize = 64

type ripemd160 struct {
	s   [5]uint32
	x   [ripemd160BlockSize]byte
	nx  int
	len uint64
}

// Ripemd160 returns the RIPEMD-160 digest of data.
func Ripemd160(data []byte) [Ripemd160Size]byte {
	d := new(ripemd160)
	d.Reset()
	d.Write(data)
	var out [Ripemd160Size]byte
	d.Sum(out[:0]) // appends within out's capacity: no allocation
	return out
}

func (d *ripemd160) Reset() {
	d.s = [5]uint32{0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476, 0xc3d2e1f0}
	d.nx = 0
	d.len = 0
}

func (d *ripemd160) Write(p []byte) (int, error) {
	n := len(p)
	d.len += uint64(n)
	if d.nx > 0 {
		c := copy(d.x[d.nx:], p)
		d.nx += c
		if d.nx == ripemd160BlockSize {
			d.block(d.x[:])
			d.nx = 0
		}
		p = p[c:]
	}
	for len(p) >= ripemd160BlockSize {
		d.block(p[:ripemd160BlockSize])
		p = p[ripemd160BlockSize:]
	}
	if len(p) > 0 {
		d.nx = copy(d.x[:], p)
	}
	return n, nil
}

func (d *ripemd160) Sum(in []byte) []byte {
	// Clone so Sum does not mutate the running state.
	dd := *d
	var pad [ripemd160BlockSize + 8]byte
	pad[0] = 0x80
	// Pad with 0x80 then zeros so that 8 bytes remain in the final block
	// for the little-endian bit length.
	padLen := ripemd160BlockSize - (dd.len+8)%ripemd160BlockSize
	msgBits := dd.len << 3
	dd.Write(pad[:padLen])
	var lenb [8]byte
	binary.LittleEndian.PutUint64(lenb[:], msgBits)
	dd.Write(lenb[:])
	var out [Ripemd160Size]byte
	for i, v := range dd.s {
		binary.LittleEndian.PutUint32(out[i*4:], v)
	}
	return append(in, out[:]...)
}

// Message word selection and rotation amounts for the two parallel lines.
var (
	ripemdRL = [80]uint{
		0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15,
		7, 4, 13, 1, 10, 6, 15, 3, 12, 0, 9, 5, 2, 14, 11, 8,
		3, 10, 14, 4, 9, 15, 8, 1, 2, 7, 0, 6, 13, 11, 5, 12,
		1, 9, 11, 10, 0, 8, 12, 4, 13, 3, 7, 15, 14, 5, 6, 2,
		4, 0, 5, 9, 7, 12, 2, 10, 14, 1, 3, 8, 11, 6, 15, 13,
	}
	ripemdRR = [80]uint{
		5, 14, 7, 0, 9, 2, 11, 4, 13, 6, 15, 8, 1, 10, 3, 12,
		6, 11, 3, 7, 0, 13, 5, 10, 14, 15, 8, 12, 4, 9, 1, 2,
		15, 5, 1, 3, 7, 14, 6, 9, 11, 8, 12, 2, 10, 0, 4, 13,
		8, 6, 4, 1, 3, 11, 15, 0, 5, 12, 2, 13, 9, 7, 10, 14,
		12, 15, 10, 4, 1, 5, 8, 7, 6, 2, 13, 14, 0, 3, 9, 11,
	}
	ripemdSL = [80]uint{
		11, 14, 15, 12, 5, 8, 7, 9, 11, 13, 14, 15, 6, 7, 9, 8,
		7, 6, 8, 13, 11, 9, 7, 15, 7, 12, 15, 9, 11, 7, 13, 12,
		11, 13, 6, 7, 14, 9, 13, 15, 14, 8, 13, 6, 5, 12, 7, 5,
		11, 12, 14, 15, 14, 15, 9, 8, 9, 14, 5, 6, 8, 6, 5, 12,
		9, 15, 5, 11, 6, 8, 13, 12, 5, 12, 13, 14, 11, 8, 5, 6,
	}
	ripemdSR = [80]uint{
		8, 9, 9, 11, 13, 15, 15, 5, 7, 7, 8, 11, 14, 14, 12, 6,
		9, 13, 15, 7, 12, 8, 9, 11, 7, 7, 12, 7, 6, 15, 13, 11,
		9, 7, 15, 11, 8, 6, 6, 14, 12, 13, 5, 14, 13, 13, 7, 5,
		15, 5, 8, 11, 14, 14, 6, 14, 6, 9, 12, 9, 12, 5, 15, 8,
		8, 5, 12, 9, 12, 5, 14, 6, 8, 13, 6, 5, 15, 13, 11, 11,
	}
)

func rol32(x uint32, s uint) uint32 { return x<<s | x>>(32-s) }

func (d *ripemd160) block(p []byte) {
	var x [16]uint32
	for i := range x {
		x[i] = binary.LittleEndian.Uint32(p[i*4:])
	}

	a, b, c, dd, e := d.s[0], d.s[1], d.s[2], d.s[3], d.s[4]
	aa, bb, cc, ddd, ee := a, b, c, dd, e

	for j := 0; j < 80; j++ {
		round := j / 16

		// Left line: f1..f5, constants K.
		var f, k uint32
		switch round {
		case 0:
			f, k = b^c^dd, 0x00000000
		case 1:
			f, k = (b&c)|(^b&dd), 0x5a827999
		case 2:
			f, k = (b|^c)^dd, 0x6ed9eba1
		case 3:
			f, k = (b&dd)|(c&^dd), 0x8f1bbcdc
		default:
			f, k = b^(c|^dd), 0xa953fd4e
		}
		t := rol32(a+f+x[ripemdRL[j]]+k, ripemdSL[j]) + e
		a, e, dd, c, b = e, dd, rol32(c, 10), b, t

		// Right line: f5..f1, constants K'.
		switch round {
		case 0:
			f, k = bb^(cc|^ddd), 0x50a28be6
		case 1:
			f, k = (bb&ddd)|(cc&^ddd), 0x5c4dd124
		case 2:
			f, k = (bb|^cc)^ddd, 0x6d703ef3
		case 3:
			f, k = (bb&cc)|(^bb&ddd), 0x7a6d76e9
		default:
			f, k = bb^cc^ddd, 0x00000000
		}
		t = rol32(aa+f+x[ripemdRR[j]]+k, ripemdSR[j]) + ee
		aa, ee, ddd, cc, bb = ee, ddd, rol32(cc, 10), bb, t
	}

	t := d.s[1] + c + ddd
	d.s[1] = d.s[2] + dd + ee
	d.s[2] = d.s[3] + e + aa
	d.s[3] = d.s[4] + a + bb
	d.s[4] = d.s[0] + b + cc
	d.s[0] = t
}
