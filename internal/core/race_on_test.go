//go:build race

package core

// raceEnabled reports a race-detector build, under which sync.Pool drops
// items at random, so allocation counts of pooled paths mean nothing.
const raceEnabled = true
