// Timeline: attach the execution tracer to the same chunked Threat Analysis
// program on the Tera MTA model and on the Exemplar model, and render both
// Gantt charts. The shapes are the paper's story in one picture: the MTA
// admits every chunk as a hardware stream at once (a solid block of short
// overlapping bars), while the conventional machine staggers OS thread
// creation and runs a few long bars per processor.
//
//	go run ./examples/timeline
package main

import (
	"fmt"
	"log"

	"repro/internal/c3i/threat"
	"repro/internal/machine"
	"repro/internal/mta"
	"repro/internal/smp"
	"repro/internal/trace"
)

func main() {
	s := threat.GenScenario("demo", threat.GenParams{NumThreats: 48, NumWeapons: 10, Seed: 3})

	run := func(name string, build func() *machine.Engine, chunks int) {
		e := build()
		l := trace.New(e.Config().ClockHz)
		e.SetTracer(l)
		res, err := e.Run("main", func(t *machine.Thread) {
			t.Mark("start")
			threat.Chunked(t, s, chunks, threat.DefaultCosts)
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("=== %s — %d chunks, %.2f simulated seconds ===\n", name, chunks, res.Seconds)
		fmt.Print(l.Gantt(64, 18))
		fmt.Printf("%s\n\n", l.Summarize())
	}

	run("Tera MTA (1 proc)", func() *machine.Engine { return mta.New(mta.Params{Procs: 1}) }, 48)
	run("Exemplar (4 proc)", func() *machine.Engine { return smp.New(smp.Exemplar(4)) }, 4)
}
