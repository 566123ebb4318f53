package faults

// CrashSchedule decides, deterministically, whether the controller process
// dies at a given sub-window boundary. It is deliberately NOT drawn from
// the Injector's PRNG stream: every Injector event draws a fixed number of
// values so enabling one fault kind never shifts another's schedule, and
// crash decisions happen at boundaries, not events — hashing (Seed,
// boundary) keeps crashes reproducible per seed while leaving every
// existing fault schedule untouched.
type CrashSchedule struct {
	// Seed parameterizes the per-boundary hash.
	Seed uint64
	// Prob is the crash probability per sub-window boundary.
	Prob float64
	// Fixed lists boundaries that always crash, regardless of Prob —
	// the kill-and-restart suite uses it to hit every boundary in turn.
	Fixed []uint64
}

// At reports whether the schedule crashes the controller at boundary sw.
func (c CrashSchedule) At(sw uint64) bool { return c.at(0, sw) }

// at is At with the probabilistic draw taken under salt, so a
// CrashSchedule embedded in another schedule gets its own hash stream.
func (c CrashSchedule) at(salt, sw uint64) bool {
	for _, f := range c.Fixed {
		if f == sw {
			return true
		}
	}
	return draw(c.Seed, salt, sw, c.Prob)
}
