package cfrt

// SetChainJobs sets whether the cluster jobs of runtimes made from now
// on run as callback chains (see chainJobs) and returns the previous
// setting. Tests that call it must not run in parallel with others
// that make runtimes.
func SetChainJobs(on bool) (was bool) {
	was, chainJobs = chainJobs, on
	return was
}
