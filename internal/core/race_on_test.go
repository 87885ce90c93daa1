//go:build race

package core

// raceEnabled: under the race detector the largest traces take seconds each
// to generate, so tests that pin a count on them leave those to the plain
// run.
const raceEnabled = true
