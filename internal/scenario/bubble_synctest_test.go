//go:build goexperiment.synctest

// go.mod's go 1.22 selects asynctimerchan=1, under which synctest.Run
// refuses to run.
//
//go:debug asynctimerchan=0

package scenario

import (
	"testing"
	"testing/synctest"
)

// virtual reports whether bubble runs its rows in virtual time.
const virtual = true

// bubble runs f inside a testing/synctest bubble: timers, sleeps and
// time.Now are virtual, and time jumps whenever every goroutine in the
// bubble is blocked. Only this file in the package uses the experiment's
// API (Go 1.25 renames Run to Test(t, f)).
func bubble(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	synctest.Run(func() { f(t) })
}
