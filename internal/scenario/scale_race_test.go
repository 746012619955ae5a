//go:build race

package scenario

// raceScale stretches the tight test timings under the race detector:
// instrumented sends and locks run many times slower, and millisecond-scale
// heartbeat and retry deadlines would produce spurious suspicions.
const raceScale = 8
