//go:build race

package jvm_test

// raceEnabled reports a -race build, whose detector slows the simulation
// about tenfold.
const raceEnabled = true
