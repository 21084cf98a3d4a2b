//go:build race

package grid_test

// The race detector's instrumentation allocates on paths that allocate
// nothing in a normal build.
func init() { raceEnabled = true }
