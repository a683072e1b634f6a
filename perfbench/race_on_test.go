//go:build race

package main

// raceDetector is set when the tests run under -race, which slows the
// simulator about tenfold and hides Go frames from CPU profiles.
const raceDetector = true
