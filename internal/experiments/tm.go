package experiments

import (
	"fmt"

	"repro/internal/c3i/suite"
	"repro/internal/platforms"
	"repro/internal/run"
)

// Fine-grained Terrain Masking decomposition on the MTA: the ray fan is
// split into this many parallel sectors and the reset/minimize passes into
// this many row chunks, giving ~100 concurrent threads per threat.
const (
	tmSectors     = 96
	tmMergeChunks = 64
)

// tmBlocks is the paper's ten-by-ten blocking of the terrain for the
// coarse-grained variant's locks.
const tmBlocks = 10

// tmSeq declares sequential Terrain Masking (charge-replay mode) on a
// platform.
func tmSeq(x *Exec, key string, procs int) run.Spec {
	return x.Spec(TM, "sequential", key, procs, nil)
}

// tmCoarse declares the coarse-grained lock-blocked variant.
func tmCoarse(x *Exec, key string, procs, workers, blocks int) run.Spec {
	return x.Spec(TM, "coarse", key, procs, suite.Params{"workers": workers, "blocks": blocks})
}

// tmFine declares the fine-grained inner-loop variant.
func tmFine(x *Exec, key string, procs int) run.Spec {
	return x.Spec(TM, "fine", key, procs, suite.Params{"sectors": tmSectors, "merge": tmMergeChunks})
}

// runTable8 reproduces Table 8: sequential Terrain Masking on all four
// platforms.
func runTable8(x *Exec) (*Result, error) {
	return sequentialTable(x, "table8", TM, PaperTable8)
}

// runTable9 reproduces Table 9 / Figure 3: coarse-grained Terrain Masking on
// the quad Pentium Pro, one worker per processor, ten-by-ten blocking.
func runTable9(x *Exec) (*Result, error) {
	specs := []run.Spec{tmSeq(x, "ppro", 4)}
	for p := 1; p <= 4; p++ {
		specs = append(specs, tmCoarse(x, "ppro", p, p, tmBlocks))
	}
	return speedupTable(x, "table9", "figure3",
		"Execution time of multithreaded Terrain Masking on quad-processor Pentium Pro",
		"Speedup of coarse-grained multithreaded Terrain Masking on quad-processor Pentium Pro",
		PaperTable9, specs,
		fmt.Sprintf("one thread per processor, ten-by-ten blocking; scale %g normalized", x.Cfg.Scale(TM)))
}

// runTable10 reproduces Table 10 / Figure 4: coarse-grained Terrain Masking
// on the 16-processor Exemplar.
func runTable10(x *Exec) (*Result, error) {
	specs := []run.Spec{tmSeq(x, "exemplar", 16)}
	for p := 1; p <= 16; p++ {
		specs = append(specs, tmCoarse(x, "exemplar", p, p, tmBlocks))
	}
	return speedupTable(x, "table10", "figure4",
		"Execution time of multithreaded Terrain Masking on 16-processor Exemplar",
		"Speedup of multithreaded Terrain Masking on 16-processor Exemplar",
		PaperTable10, specs,
		fmt.Sprintf("one thread per processor, ten-by-ten blocking; scale %g normalized", x.Cfg.Scale(TM)))
}

// runTable11 reproduces Table 11: fine-grained Terrain Masking on the Tera
// MTA, one and two processors. The coarse-grained variant is infeasible
// there — efficient use of the machine needs hundreds of streams, and
// hundreds of private temp arrays exceed the machine's 2 GB (see the note).
func runTable11(x *Exec) (*Result, error) {
	tera, err := platforms.Get("tera")
	if err != nil {
		return nil, err
	}
	return teraTable(x, "table11", TM, PaperTable11,
		[]run.Spec{tmFine(x, "tera", 1), tmFine(x, "tera", 2)},
		fmt.Sprintf("fine-grained inner-loop parallelism (%d ray sectors, %d merge chunks); scale %g normalized",
			tmSectors, tmMergeChunks, x.Cfg.Scale(TM)),
		fmt.Sprintf("coarse-grained variant infeasible on the MTA: 256 workers would need %.1f GB of private temp arrays vs %d GB of memory",
			coarseOverheadFullScaleGB(TM, 256), tera.MemoryBytes>>30))
}

// runTable12 reproduces Table 12: the Terrain Masking summary.
func runTable12(x *Exec) (*Result, error) {
	return summary(x, "table12", TM, []summaryCell{
		{"None", "Alpha", 158, tmSeq(x, "alpha", 1)},
		{"None", "Pentium Pro", 197, tmSeq(x, "ppro", 4)},
		{"None", "Exemplar", 228, tmSeq(x, "exemplar", 16)},
		{"None", "Tera", 978, tmSeq(x, "tera", 1)},
		{"Automatic", "Exemplar", 228, tmSeq(x, "exemplar", 16)},
		{"Automatic", "Tera", 978, tmSeq(x, "tera", 1)},
		{"Manual", "Pentium Pro (4 processors)", 65, tmCoarse(x, "ppro", 4, 4, tmBlocks)},
		{"Manual", "Exemplar (4 processors)", 59, tmCoarse(x, "exemplar", 4, 4, tmBlocks)},
		{"Manual", "Exemplar (8 processors)", 37, tmCoarse(x, "exemplar", 8, 8, tmBlocks)},
		{"Manual", "Exemplar (16 processors)", 37, tmCoarse(x, "exemplar", 16, 16, tmBlocks)},
		{"Manual", "Tera MTA (1 processor)", 48, tmFine(x, "tera", 1)},
		{"Manual", "Tera MTA (2 processors)", 34, tmFine(x, "tera", 2)},
	})
}
