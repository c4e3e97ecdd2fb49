//go:build race

package lane

// raceEnabled reports whether the race detector instruments this build;
// its allocations distort testing.AllocsPerRun.
const raceEnabled = true
