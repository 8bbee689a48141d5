//go:build !race

package pokeholes_test

// raceEnabled reports whether the tests run under the race detector,
// which changes allocation behaviour (sync.Pool drops items at random).
const raceEnabled = false
