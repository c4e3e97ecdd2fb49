//go:build race

package experiments

// raceEnabled reports whether the race detector instruments this build;
// it slows code paths unevenly, which distorts the figures' timing ratios.
const raceEnabled = true
