//go:build goexperiment.synctest

// go.mod's go 1.22 selects asynctimerchan=1, under which synctest.Run
// refuses to run.
//
//go:debug asynctimerchan=0

package aggregate

import (
	"testing"
	"testing/synctest"
)

// bubble runs f inside a testing/synctest bubble, where the batch timer
// fires exactly MaxDelay after it is armed. It is the twin of
// internal/scenario's helper.
func bubble(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	synctest.Run(func() { f(t) })
}
