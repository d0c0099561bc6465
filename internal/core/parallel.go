// Parallel execution of the pipeline's hot phases. The design goal is
// determinism: every code path here must produce bit-identical results
// to the serial one for any worker count. Both fan-outs go through the
// run's one panic-safe fan-out, fault.Ranges, and both are order-free:
// the full mask's value fill (scancache.go) computes each entry on its
// own, and each point's label is a pure function of the point and the
// (already fixed) β-cluster list.
package core

// minParallelCells is the level size below which spawning workers to
// fill a level's full-mask values costs more than the fill; under it
// the fill stays serial. Determinism does not depend on this value.
const minParallelCells = 256

// minParallelPoints is the dataset size below which point labeling
// stays serial.
const minParallelPoints = 4096

// scanCheckEvery is the number of cells (or points) a hot loop
// processes between abort checkpoints. It bounds cancellation latency
// to a few thousand units of work while keeping the per-iteration cost
// of the robustness layer at one predictable branch.
const scanCheckEvery = 4096
