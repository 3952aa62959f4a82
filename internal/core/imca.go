// Package core implements IMCa, the paper's contribution: an InterMediate
// Cache architecture that interposes a bank of MemCached daemons (MCDs)
// between file system clients and the file server.
//
// Two translators cooperate:
//
//   - CMCache (client memory cache) intercepts operations at the GlusterFS
//     client. Stat and Read try the MCD bank first; Create, Delete, Write,
//     and Close pass through untouched. A read that misses any covering
//     block falls back to the server (so cold misses cost MORE than the
//     uncached file system — the paper's stated trade-off).
//
//   - SMCache (server memory cache) hooks the server's completion path: it
//     purges a file's cached entries when it is opened, closed, or deleted,
//     pushes the stat structure at open/stat/write completions, and after
//     reads and writes pushes the covering fixed-size blocks — for writes by
//     re-reading the written span from the file system, because overlapping
//     writes plus the fixed block size make direct write-through impossible.
//
// Data is cached in fixed-size blocks keyed "<abs path>:<block offset>";
// stat structures use "<abs path>:stat". Keys are distributed over the MCD
// bank with libmemcache's CRC32 hash, or round-robin by block number for
// bandwidth experiments. Writes are persistent: they reach the server's
// disk before any cache update, so MCD failures never affect correctness.
package core

import (
	"strconv"
)

// Config carries the IMCa tuning knobs shared by both translators.
type Config struct {
	// BlockSize is the fixed cache block size. Must be positive and at
	// most the MCD's 1 MB object bound. The paper evaluates 256 B, 2 KB
	// (the default), and 8 KB.
	BlockSize int64
	// Threaded moves SMCache's MCD updates off the request critical path
	// onto a helper task (the paper's proposed optimization for Write
	// latency).
	Threaded bool
	// ClientPopulate makes CMCache itself feed the MCD bank after read
	// misses and writes, instead of relying on a server-side SMCache.
	// This implements the paper's future-work direction of attaching the
	// cache bank to file systems whose servers cannot be modified (e.g.
	// Lustre): coherency still holds for the single-writer patterns the
	// paper evaluates, because writes reach the server before the push,
	// but unlike SMCache there is no purge-on-open from other clients.
	ClientPopulate bool
}

// DefaultBlockSize is the block size the paper settles on for most
// experiments.
const DefaultBlockSize = 2048

func (c Config) blockSize() int64 {
	if c.BlockSize <= 0 {
		return DefaultBlockSize
	}
	return c.BlockSize
}

// statKey returns the MCD key for a file's stat structure.
func statKey(path string) string { return path + ":stat" }

// blockKey returns the MCD key for the data block at the given aligned
// byte offset.
func blockKey(path string, blockOff int64) string {
	return path + ":" + strconv.FormatInt(blockOff, 10)
}

// alignSpan widens [off, off+size) to block boundaries, returning the
// covering aligned span.
func alignSpan(off, size, bs int64) (alignedOff, alignedSize int64) {
	if size <= 0 {
		return off - off%bs, 0
	}
	start := off - off%bs
	end := off + size
	if rem := end % bs; rem != 0 {
		end += bs - rem
	}
	return start, end - start
}

// blockOffsets lists the aligned block offsets covering [off, off+size).
func blockOffsets(off, size, bs int64) []int64 {
	start, span := alignSpan(off, size, bs)
	if span == 0 {
		return nil
	}
	n := span / bs
	out := make([]int64, 0, n)
	for b := start; b < start+span; b += bs {
		out = append(out, b)
	}
	return out
}
