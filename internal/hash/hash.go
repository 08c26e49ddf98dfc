// Package hash provides the hash functions and collision policies used
// by the relaxed (unordered) matcher. The paper uses Robert Jenkins'
// 32-bit 6-shift integer hash; the alternatives here implement the
// paper's stated future work of exploring "various combinations of hash
// functions and collision resolution policies".
package hash

import "fmt"

// Func is a 64-bit-key to 32-bit-hash function.
type Func func(key uint64) uint32

// Jenkins6Shift is Robert Jenkins' 32-bit 6-shift integer hash, the
// function the paper selected for its GPU hash-table matcher. The
// 64-bit tuple key is folded to 32 bits first; the upper half (tag and
// communicator bits) is spread by a Knuth multiplicative step before
// the XOR so that small src and tag values — the common case in real
// applications — do not cancel in the low bits.
func Jenkins6Shift(key uint64) uint32 {
	a := uint32(key) ^ uint32(key>>32)*2654435761
	a = (a + 0x7ed55d16) + (a << 12)
	a = (a ^ 0xc761c23c) ^ (a >> 19)
	a = (a + 0x165667b1) + (a << 5)
	a = (a + 0xd3a2646c) ^ (a << 9)
	a = (a + 0xfd7046c5) + (a << 3)
	a = (a ^ 0xb55a4f09) ^ (a >> 16)
	return a
}

// FNV1a is the 32-bit Fowler–Noll–Vo 1a hash over the key's 8 bytes,
// an alternative with different diffusion behaviour.
func FNV1a(key uint64) uint32 {
	const (
		offset = 2166136261
		prime  = 16777619
	)
	h := uint32(offset)
	for i := 0; i < 8; i++ {
		h ^= uint32(key >> (8 * uint(i)) & 0xFF)
		h *= prime
	}
	return h
}

// XorShiftMult is a multiplicative xorshift mixer (Murmur3-style
// finalizer), cheap on GPU ALUs.
func XorShiftMult(key uint64) uint32 {
	k := key
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	k *= 0xc4ceb9fe1a85ec53
	k ^= k >> 33
	return uint32(k)
}

// ByName returns a named hash function for CLI/bench selection.
func ByName(name string) (Func, error) {
	switch name {
	case "jenkins":
		return Jenkins6Shift, nil
	case "fnv1a":
		return FNV1a, nil
	case "xorshift":
		return XorShiftMult, nil
	default:
		return nil, fmt.Errorf("hash: unknown function %q (want jenkins, fnv1a or xorshift)", name)
	}
}

// CostALU returns the approximate ALU instruction count of one hash
// evaluation, used by the SIMT kernels to bill hashing work.
func CostALU(name string) int {
	switch name {
	case "jenkins":
		return 13 // 6 shifts + 6 add/xor pairs + fold
	case "fnv1a":
		return 25 // 8 rounds of xor+mul + extraction
	case "xorshift":
		return 7
	default:
		return 13
	}
}
