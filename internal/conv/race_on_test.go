//go:build race

package conv

// raceEnabled reports that this binary was built with the race
// detector, whose instrumentation allocates per memory access and
// makes allocation budgets meaningless.
const raceEnabled = true
