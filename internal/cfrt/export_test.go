package cfrt

// SetHoldSteps sets whether the runtimes made from now on play every
// chain as one Hold per step (see holdSteps) and returns the previous
// setting. Tests that call it must not run in parallel with others
// that make runtimes.
func SetHoldSteps(on bool) (was bool) {
	was, holdSteps = holdSteps, on
	return was
}
