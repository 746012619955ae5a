//go:build !race

package scenario

// raceScale is 1 in normal builds; see scale_race_test.go.
const raceScale = 1
