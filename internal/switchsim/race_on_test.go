//go:build race

package switchsim

// raceEnabled reports that this binary was built with -race; allocation
// accounting is perturbed by the detector's instrumentation, so the
// allocs/op pins skip themselves.
const raceEnabled = true
