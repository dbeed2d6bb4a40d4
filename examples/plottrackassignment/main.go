// Plot-Track Assignment end to end: radar frames correlated against a track
// database under a gating window, and the three program styles — the
// sequential Gauss-Seidel auction, the coarse Jacobi auction with a
// persistent crew, private bid buffers and per-track merge locks, and the
// Tera fine-grained asynchronous auction with fetch-and-add plot claims and
// full/empty track-ownership cells — with assignment-cost verification
// across every variant and machine, and the private bid memory the coarse
// style pays for.
//
//	go run ./examples/plottrackassignment
package main

import (
	"fmt"
	"log"

	"repro/internal/c3i/plottrack"
	"repro/internal/machine"
	"repro/internal/mta"
	"repro/internal/smp"
)

func main() {
	p := plottrack.GenParams{Field: 512, NumTracks: 120, NumPlots: 130, Frames: 4, Seed: 41}
	s := plottrack.GenScenario("demo", p)
	fmt.Printf("field: %d×%d, %d tracks, %d frames × %d plots, gate radius %d\n\n",
		s.Field, s.Field, len(s.Tracks), len(s.Frames), len(s.Frames[0]), plottrack.DefaultGate)

	runs := []struct {
		label string
		build func() *machine.Engine
		solve func(t *machine.Thread) *plottrack.Output
	}{
		{"sequential on Alpha",
			func() *machine.Engine { return smp.New(smp.AlphaStation()) },
			func(t *machine.Thread) *plottrack.Output { return plottrack.Sequential(t, s) }},
		{"coarse(4 workers) on PPro(4)",
			func() *machine.Engine { return smp.New(smp.PentiumProSMP(4)) },
			func(t *machine.Thread) *plottrack.Output { return plottrack.Coarse(t, s, 4) }},
		{"coarse(16 workers) on Exemplar",
			func() *machine.Engine { return smp.New(smp.Exemplar(16)) },
			func(t *machine.Thread) *plottrack.Output { return plottrack.Coarse(t, s, 16) }},
		{"fine(128 threads) on Tera MTA(1)",
			func() *machine.Engine { return mta.New(mta.Params{Procs: 1}) },
			func(t *machine.Thread) *plottrack.Output { return plottrack.Fine(t, s, 128) }},
		{"fine(128 threads) on Tera MTA(2)",
			func() *machine.Engine { return mta.New(mta.Params{Procs: 2}) },
			func(t *machine.Thread) *plottrack.Output { return plottrack.Fine(t, s, 128) }},
	}

	var golden uint64
	for _, r := range runs {
		var out *plottrack.Output
		e := r.build()
		res, err := e.Run(r.label, func(t *machine.Thread) { out = r.solve(t) })
		if err != nil {
			log.Fatal(err)
		}
		sum := plottrack.Checksum(out.FrameCost, len(s.Frames[0]), len(s.Tracks))
		if golden == 0 {
			golden = sum
		} else if sum != golden {
			log.Fatalf("%s: assignment-cost checksum %016x differs from sequential %016x", r.label, sum, golden)
		}
		fmt.Printf("%-33s %8.3f s simulated   %6d bids   %4d matched  %3d new tracks   %.2f MB bid buffers\n",
			r.label, res.Seconds, out.Bids, out.Assigned, out.NewTracks,
			float64(out.BidBufferBytes)/(1<<20))
	}
	fmt.Printf("\nall variants agree: assignment-cost checksum %016x\n", golden)

	fmt.Println("\nwhy the coarse crew cannot use the MTA's streams at full scale:")
	for _, workers := range []int{16, 128, 256} {
		need := float64(plottrack.CoarseBidBytesFullScale(workers)) / (1 << 30)
		fmt.Printf("  %3d workers need %5.1f GB of private bid buffers (machine has 2 GB)\n",
			workers, need)
	}
}
