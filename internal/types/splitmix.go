package types

import "sync/atomic"

// Mix64 is the splitmix64 finalizer: a cheap bijective avalanche, so every
// input bit influences every output bit.
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Uniform steps the splitmix64 stream whose state is held in s and
// returns the next draw in [0,1). It is lock-free: concurrent callers each
// take a distinct step. The quality is ample for jitter and fault
// injection, not for cryptography.
func Uniform(s *atomic.Uint64) float64 {
	return float64(Mix64(s.Add(0x9e3779b97f4a7c15))>>11) / (1 << 53)
}
