//go:build race

package server

// raceEnabled: under the race detector sync.Pool deliberately drops a share
// of what is put into it, so allocation bounds that rest on pooling are not
// asserted.
const raceEnabled = true
