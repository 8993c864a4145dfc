//go:build !race

package sqlengine

// raceEnabled reports a -race build, under which sync.Pool drops
// buffers at random, so allocation counts are not exact.
const raceEnabled = false
