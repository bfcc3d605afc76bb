//go:build race

package serve

// raceEnabled reports that the race detector is on: sync.Pool then drops
// a quarter of what it is given on purpose, so allocation budgets that
// rely on pooling do not hold.
const raceEnabled = true
