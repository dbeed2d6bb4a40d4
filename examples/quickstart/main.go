// Quickstart: build a simulated machine, run a small multithreaded program
// on it, and read the simulated clock.
//
// The same program runs on the Tera MTA model and on a conventional SMP
// model; the only difference is what the machine charges for threads,
// synchronization and memory — which is the whole point of the paper.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/mta"
	"repro/internal/smp"
	"repro/internal/threads"
)

// program sums 1..n in parallel chunks, each chunk into its own slot, and
// adds the slots once every chunk has joined.
func program(n, chunks int) func(t *machine.Thread) {
	return func(t *machine.Thread) {
		sums := make([]int64, chunks)
		threads.ParChunks(t, "sum", n, chunks, func(c *machine.Thread, chunk, lo, hi int) {
			for i := lo; i < hi; i++ {
				sums[chunk] += int64(i + 1)
			}
			c.Compute(int64(3 * (hi - lo))) // load, add, loop per element
		})
		var total int64
		for _, s := range sums {
			total += s
		}
		fmt.Printf("    sum(1..%d) = %d\n", n, total)
	}
}

func main() {
	const n = 1_000_000
	for _, chunks := range []int{1, 16, 128} {
		fmt.Printf("with %d threads:\n", chunks)
		for _, build := range []func() *machine.Engine{
			func() *machine.Engine { return mta.New(mta.Params{Procs: 1}) },
			func() *machine.Engine { return smp.New(smp.Exemplar(16)) },
		} {
			e := build()
			res, err := e.Run("main", program(n, chunks))
			if err != nil {
				panic(err)
			}
			fmt.Printf("    %-22s %10.3f ms simulated (%.0f%% proc 0 utilization)\n",
				e.Config().Name, res.Seconds*1e3, res.Stats.ProcUtil[0]*100)
		}
	}
	fmt.Println("\nNote the MTA's dependence on thread count: with one thread it")
	fmt.Println("issues an instruction every 21 cycles; with 128 it is saturated.")
}
