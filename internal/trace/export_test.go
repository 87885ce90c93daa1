package trace

// SetMsgSeed replaces the per-process seed of the message table's hash and
// returns a function that restores it, so tests can show that no lookup
// result depends on the probe order the seed decides.
func SetMsgSeed(seed uint64) (restore func()) {
	old := msgSeed
	msgSeed = seed
	return func() { msgSeed = old }
}
