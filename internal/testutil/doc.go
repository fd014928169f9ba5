// Package testutil holds tiny helpers shared by tests. RaceEnabled lets
// testing.AllocsPerRun regression tests skip under -race, whose
// instrumentation changes allocation behaviour (e.g. it defeats the
// append+make no-copy optimisation). CheckNames checks that every
// constant of a kind prints a name of its own.
package testutil
