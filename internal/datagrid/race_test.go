//go:build race

package datagrid_test

// Under the race detector sync.Pool drops a share of what is put back,
// so every path through iovec's pools allocates far more than it does
// in a normal build.
func init() { poolsLeak = true }
