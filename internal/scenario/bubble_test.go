//go:build !goexperiment.synctest

package scenario

import "testing"

// virtual reports whether bubble runs its rows in virtual time: not
// without GOEXPERIMENT=synctest (see bubble_synctest_test.go).
const virtual = false

// bubble runs f on the wall clock.
func bubble(t *testing.T, f func(t *testing.T)) { f(t) }
