//go:build race

package mercury

// raceEnabled reports a race-detector build, under which sync.Pool drops
// items at random, so what a pooled path recycles cannot be observed.
const raceEnabled = true
