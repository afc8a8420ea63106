package sim

import (
	"testing"

	"repro/internal/leakcheck"
)

// TestMain gates the package's tests on the goroutine-leak check: a
// process goroutine still alive after the tests fails the run.
func TestMain(m *testing.M) { leakcheck.Main(m) }
