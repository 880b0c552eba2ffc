//go:build unix

package store

import (
	"errors"
	"syscall"
)

// lockFile takes the store's advisory inter-process lock on an open
// file: flock(2) exclusive, for the single writer. Non-blocking — a
// conflict reports ErrLocked immediately so the caller can refuse or
// run without a store rather than silently interleaving appends with
// another process. flock locks belong to the open file description, so
// two Opens of one path conflict even inside a single process, which
// is what the regression test exercises.
func lockFile(fd uintptr) error {
	err := syscall.Flock(int(fd), syscall.LOCK_EX|syscall.LOCK_NB)
	if errors.Is(err, syscall.EWOULDBLOCK) || errors.Is(err, syscall.EAGAIN) {
		return ErrLocked
	}
	return err
}
