// Route Optimization end to end: a risk-weighted grid derived from fractal
// terrain and ground threats, and the three program styles — sequential
// Dijkstra, coarse ∆-stepping with a persistent worker crew and per-block
// merge locks, and the Tera fine-grained shared-bucket version — with
// path-cost verification across every variant and machine, and the private
// frontier memory the coarse style pays for.
//
//	go run ./examples/routeoptimization
package main

import (
	"fmt"
	"log"

	"repro/internal/c3i/route"
	"repro/internal/machine"
	"repro/internal/mta"
	"repro/internal/smp"
)

func main() {
	p := route.GenParams{Side: 160, NumThreats: 12, Radius: 20, NumQueries: 4, Seed: 41}
	s := route.GenScenario("demo", p)
	fmt.Printf("grid: %d×%d cells, %d ground threats, %d route requests, max edge weight %d\n\n",
		s.W, s.H, p.NumThreats, len(s.Queries), s.MaxEdgeWeight())

	runs := []struct {
		label string
		build func() *machine.Engine
		solve func(t *machine.Thread) *route.Output
	}{
		{"sequential on Alpha",
			func() *machine.Engine { return smp.New(smp.AlphaStation()) },
			func(t *machine.Thread) *route.Output { return route.Sequential(t, s) }},
		{"coarse(4 workers) on PPro(4)",
			func() *machine.Engine { return smp.New(smp.PentiumProSMP(4)) },
			func(t *machine.Thread) *route.Output { return route.Coarse(t, s, 4, 4) }},
		{"coarse(16 workers) on Exemplar",
			func() *machine.Engine { return smp.New(smp.Exemplar(16)) },
			func(t *machine.Thread) *route.Output { return route.Coarse(t, s, 16, 4) }},
		{"fine(256 threads) on Tera MTA(1)",
			func() *machine.Engine { return mta.New(mta.Params{Procs: 1}) },
			func(t *machine.Thread) *route.Output { return route.Fine(t, s, 256) }},
		{"fine(256 threads) on Tera MTA(2)",
			func() *machine.Engine { return mta.New(mta.Params{Procs: 2}) },
			func(t *machine.Thread) *route.Output { return route.Fine(t, s, 256) }},
	}

	var golden uint64
	for _, r := range runs {
		var out *route.Output
		e := r.build()
		res, err := e.Run(r.label, func(t *machine.Thread) { out = r.solve(t) })
		if err != nil {
			log.Fatal(err)
		}
		sum := route.Checksum(out.PathCost)
		if golden == 0 {
			golden = sum
		} else if sum != golden {
			log.Fatalf("%s: path-cost checksum %016x differs from sequential %016x", r.label, sum, golden)
		}
		fmt.Printf("%-33s %8.3f s simulated   %9d relaxations   %.1f MB frontier buffers\n",
			r.label, res.Seconds, out.Relaxed, float64(out.FrontierBytes)/(1<<20))
	}
	fmt.Printf("\nall variants agree: path-cost checksum %016x\n", golden)

	fmt.Println("\nwhy the coarse crew cannot use the MTA's streams at full scale:")
	for _, workers := range []int{16, 128, 256} {
		need := float64(route.CoarseFrontierBytesFullScale(workers)) / (1 << 30)
		fmt.Printf("  %3d workers need %5.1f GB of private candidate buffers (machine has 2 GB)\n",
			workers, need)
	}
}
