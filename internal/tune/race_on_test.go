//go:build race

package tune

// raceEnabled reports that the race detector is on: the event engine then
// runs tens of times slower, so the exhaustive sweeps take their -short
// subset.
const raceEnabled = true
