//go:build race

package main

// raceEnabled reports whether the race detector instruments this build;
// its allocations distort testing.AllocsPerRun.
const raceEnabled = true
