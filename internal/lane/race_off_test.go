//go:build !race

package lane

const raceEnabled = false
