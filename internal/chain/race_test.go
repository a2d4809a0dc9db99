//go:build race

package chain

// raceEnabled reports a -race build, whose sync.Pool drops a share of
// the items put back, so allocation counts through a pool mean nothing.
const raceEnabled = true
