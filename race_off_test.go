//go:build !race

package hsumma

const raceEnabled = false
