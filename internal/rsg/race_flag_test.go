//go:build race

package rsg

// Under the race detector sync.Pool drops a random share of the
// objects put back, so pooled kernels allocate fresh scratch at random
// and their allocation counts mean nothing.
func init() { raceEnabled = true }
