//go:build !goexperiment.synctest

package aggregate

import "testing"

// bubble runs f on the wall clock without GOEXPERIMENT=synctest (see
// bubble_synctest_test.go).
func bubble(t *testing.T, f func(t *testing.T)) { f(t) }
