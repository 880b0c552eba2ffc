//go:build !unix

package store

// Platforms without flock get no inter-process lock; single-process
// exclusion still holds through Store.mu, and the CRC/truncate recovery
// bounds the damage of an unlikely cross-process interleave to the
// torn tail.
func lockFile(fd uintptr) error { return nil }
