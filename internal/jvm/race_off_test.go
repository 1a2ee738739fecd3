//go:build !race

package jvm_test

const raceEnabled = false
