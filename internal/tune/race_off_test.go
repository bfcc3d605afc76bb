//go:build !race

package tune

const raceEnabled = false
