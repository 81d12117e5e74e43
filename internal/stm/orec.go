package stm

import "sync/atomic"

// orec is an ownership record: a versioned lock word protecting every Var
// that hashes to it.
//
// Encoding of the 64-bit word:
//
//	bit 0     — locked flag
//	bits 1-63 — if locked: owner transaction id; else: version number
//
// The owner id is the locking Tx's id: minted once per pooled Tx (per
// attempt while a tracer is armed) and so unique among live
// transactions, which is all validation's "locked by me" test needs.
// Versions come from the engine's global clock. A transaction that locks
// an orec remembers the pre-lock version and restores/advances it on
// release.
type orec struct {
	w atomic.Uint64
}

func (o *orec) load() uint64 { return o.w.Load() }

func (o *orec) cas(old, new uint64) bool { return o.w.CompareAndSwap(old, new) }

// release stores an unlocked word carrying version v.
func (o *orec) release(v uint64) { o.w.Store(packVersion(v)) }

func isLocked(w uint64) bool { return w&1 == 1 }

// ownerOf returns the owner transaction id of a locked word.
func ownerOf(w uint64) uint64 { return w >> 1 }

// versionOf returns the version of an unlocked word.
func versionOf(w uint64) uint64 { return w >> 1 }

func packVersion(v uint64) uint64 { return v << 1 }

func lockWord(txid uint64) uint64 { return txid<<1 | 1 }

// orecIndex maps a Var sequence number onto the striped orec table using a
// Fibonacci multiplicative hash. mask must be a power of two minus one.
func orecIndex(seq, mask uint64) uint64 {
	const phi = 0x9E3779B97F4A7C15
	h := seq * phi
	return (h >> 17) & mask
}
