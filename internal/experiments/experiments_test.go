package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/mta"
	"repro/internal/run"
)

// Integration tests: every qualitative finding of the paper must hold in the
// model at reduced workload scale. These run the full pipeline (benchmark
// programs through machine models), so they are the repository's
// end-to-end checks.

var testCfg = Config{Scales: map[string]float64{TA: 0.1, TM: 0.1, RO: 0.05, PT: 0.1, HT: 0.1}}

// testX is the Exec the helper-level tests run their Specs through; it
// shares the package Runner, so cells overlap with the experiment-level
// tests exactly as production consumers overlap.
var testX = &Exec{Cfg: testCfg, ctx: context.Background(), runner: sharedRunner}

// sec runs one cell through x and returns its paper-scale seconds.
func sec(t *testing.T, x *Exec, spec run.Spec) float64 {
	t.Helper()
	recs, err := x.RunAll([]run.Spec{spec})
	if err != nil {
		t.Fatal(err)
	}
	return recs[0].PaperSeconds
}

func TestSequentialTAOrdering(t *testing.T) {
	// Paper Table 2: Alpha < Exemplar < Pentium Pro ≪ Tera.
	alpha := sec(t, testX, taSeq(testX, "alpha", 1))
	ppro := sec(t, testX, taSeq(testX, "ppro", 4))
	exem := sec(t, testX, taSeq(testX, "exemplar", 16))
	tera := sec(t, testX, taSeq(testX, "tera", 1))
	if !(alpha < exem && exem < ppro && ppro < tera) {
		t.Errorf("ordering wrong: alpha=%.0f exemplar=%.0f ppro=%.0f tera=%.0f", alpha, exem, ppro, tera)
	}
	if r := tera / alpha; r < 8 || r > 20 {
		t.Errorf("tera/alpha = %.1f, want ≈ 14 (paper: roughly 14 times slower)", r)
	}
}

func TestTAExemplarScalesNearLinearly(t *testing.T) {
	// Paper Table 4: 15.4-fold speedup on 16 processors.
	seq := sec(t, testX, taSeq(testX, "exemplar", 16))
	par := sec(t, testX, taChunked(testX, "exemplar", 16, 16))
	if s := seq / par; s < 11 || s > 16.5 {
		t.Errorf("16-proc speedup = %.1f, want ≈ 14-15.5", s)
	}
}

func TestTATeraChunkSweepShape(t *testing.T) {
	// Paper Table 6: time falls with chunk count and flattens by 128.
	var prev float64
	times := map[int]float64{}
	for _, chunks := range []int{8, 16, 32, 64, 128, 256} {
		sec := sec(t, testX, taChunked(testX, "tera", 2, chunks))
		times[chunks] = sec
		if prev > 0 && sec > prev*1.08 {
			t.Errorf("chunk sweep not non-increasing: %d chunks %.1f s after %.1f s", chunks, sec, prev)
		}
		prev = sec
	}
	if f := times[128] / times[256]; f < 0.85 || f > 1.2 {
		t.Errorf("128 vs 256 chunks = %.2f, want ≈ flat", f)
	}
	if f := times[8] / times[128]; f < 4 || f > 12 {
		t.Errorf("8 vs 128 chunks = %.1fx, want ≈ 8x (the machine needs hundreds of threads)", f)
	}
}

func TestTATeraMultithreadedVsSequential(t *testing.T) {
	// Paper: "The multithreaded program runs dramatically faster (32 times
	// faster on one processor) than the sequential program on the Tera MTA."
	seq := sec(t, testX, taSeq(testX, "tera", 1))
	par := sec(t, testX, taChunked(testX, "tera", 1, 256))
	if f := seq / par; f < 20 || f > 40 {
		t.Errorf("tera multithreaded speedup = %.1f, want ≈ 30", f)
	}
}

func TestTATeraTwoProcSpeedup(t *testing.T) {
	// Paper Table 5: 1.8 on two processors.
	one := sec(t, testX, taChunked(testX, "tera", 1, 256))
	two := sec(t, testX, taChunked(testX, "tera", 2, 256))
	if s := one / two; s < 1.5 || s > 2.05 {
		t.Errorf("2-proc speedup = %.2f, want ≈ 1.8", s)
	}
}

func TestSequentialTMOrderingAndRatios(t *testing.T) {
	// Paper Table 8: Alpha < PPro < Exemplar ≪ Tera; Tera ≈ 6x Alpha.
	alpha := sec(t, testX, tmSeq(testX, "alpha", 1))
	tera := sec(t, testX, tmSeq(testX, "tera", 1))
	if r := tera / alpha; r < 4.5 || r > 9 {
		t.Errorf("tera/alpha = %.1f, want ≈ 6 (memory-bound: smaller gap than TA)", r)
	}
	// The key contrast with TA: the Tera penalty is much smaller for the
	// memory-bound program.
	taAlpha := sec(t, testX, taSeq(testX, "alpha", 1))
	taTera := sec(t, testX, taSeq(testX, "tera", 1))
	if (tera / alpha) >= (taTera / taAlpha) {
		t.Errorf("TM tera ratio %.1f not smaller than TA ratio %.1f", tera/alpha, taTera/taAlpha)
	}
}

func TestTMPentiumProSaturates(t *testing.T) {
	// Paper Table 9: three-fold speedup on four processors (memory-bound).
	seq := sec(t, testX, tmSeq(testX, "ppro", 4))
	par := sec(t, testX, tmCoarse(testX, "ppro", 4, 4, tmBlocks))
	if s := seq / par; s < 2.2 || s > 3.8 {
		t.Errorf("PPro 4-proc TM speedup = %.1f, want ≈ 3 (bus saturation)", s)
	}
}

func TestTMExemplarPlateaus(t *testing.T) {
	// Paper Table 10: speedup plateaus around 6-7 well below 16.
	seq := sec(t, testX, tmSeq(testX, "exemplar", 16))
	par16 := sec(t, testX, tmCoarse(testX, "exemplar", 16, 16, tmBlocks))
	if s := seq / par16; s < 4.5 || s > 10 {
		t.Errorf("Exemplar 16-proc TM speedup = %.1f, want ≈ 6-8 (plateau)", s)
	}
}

func TestTMTeraFine(t *testing.T) {
	// Paper Table 11 + §6: ~20x over Tera sequential; 1.4 on two processors.
	seq := sec(t, testX, tmSeq(testX, "tera", 1))
	one := sec(t, testX, tmFine(testX, "tera", 1))
	two := sec(t, testX, tmFine(testX, "tera", 2))
	if f := seq / one; f < 15 || f > 35 {
		t.Errorf("fine-grained vs sequential = %.1fx, want ≈ 20x", f)
	}
	if s := one / two; s < 1.05 || s > 1.7 {
		t.Errorf("2-proc speedup = %.2f, want ≈ 1.4", s)
	}
}

func TestTeraBeatsAlphaWhenMultithreaded(t *testing.T) {
	// Paper §7: one MTA processor multithreaded is 2-3.5x faster than the
	// Alpha for these codes.
	taAlpha := sec(t, testX, taSeq(testX, "alpha", 1))
	taTera := sec(t, testX, taChunked(testX, "tera", 1, 256))
	if r := taAlpha / taTera; r < 1.5 || r > 4 {
		t.Errorf("TA: alpha/tera-1proc = %.2f, want ≈ 2.3", r)
	}
	tmAlpha := sec(t, testX, tmSeq(testX, "alpha", 1))
	tmTera := sec(t, testX, tmFine(testX, "tera", 1))
	if r := tmAlpha / tmTera; r < 1.8 || r > 5 {
		t.Errorf("TM: alpha/tera-1proc = %.2f, want ≈ 3.3", r)
	}
}

func TestTeraOneProcEquivalentToFourExemplar(t *testing.T) {
	// Paper §5: "the performance of one 255 MHz Tera MTA processor is
	// approximately equivalent to four 180 MHz Exemplar processors."
	tera := sec(t, testX, taChunked(testX, "tera", 1, 256))
	exem4 := sec(t, testX, taChunked(testX, "exemplar", 4, 4))
	if r := tera / exem4; r < 0.6 || r > 1.6 {
		t.Errorf("tera-1proc / exemplar-4proc = %.2f, want ≈ 1", r)
	}
}

func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep is slow")
	}
	golden := map[string][]goldenRecord{}
	rendered := map[string]string{}
	for _, e := range All() {
		res, err := e.Run(testCfg)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if len(res.Records) > 0 {
			golden[e.ID] = goldenOf(res.Records)
		}
		rendered[e.ID] = renderHash(res)
		if len(res.Tables) == 0 {
			t.Errorf("%s: no tables produced", e.ID)
		}
		for _, tb := range res.Tables {
			if len(tb.Rows) == 0 {
				t.Errorf("%s: table %s empty", e.ID, tb.ID)
			}
			if out := tb.Render(); !strings.Contains(out, "│") {
				t.Errorf("%s: table %s renders empty", e.ID, tb.ID)
			}
		}
	}
	checkGolden(t, goldenPath, golden, firstDiff)
	checkGolden(t, renderedPath, rendered, hashDiff)
}

func TestFiguresProducedForSpeedupTables(t *testing.T) {
	for _, id := range []string{"table3", "table4", "table9", "table10"} {
		e, err := Get(id)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run(testCfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Figures) != 1 {
			t.Errorf("%s: %d figures, want 1", id, len(res.Figures))
			continue
		}
		if out := res.Figures[0].Render(50, 12); !strings.Contains(out, "speedup") {
			t.Errorf("%s: figure missing axis labels", id)
		}
	}
}

func TestAutomaticEqualsSequentialInSummaries(t *testing.T) {
	for _, id := range []string{"table7", "table12"} {
		e, err := Get(id)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run(testCfg)
		if err != nil {
			t.Fatal(err)
		}
		tb := res.Tables[0]
		byKey := map[string]string{}
		for _, row := range tb.Rows {
			byKey[row[0]+"|"+row[1]] = row[3]
		}
		for _, plat := range []string{"Exemplar", "Tera"} {
			if byKey["Automatic|"+plat] != byKey["None|"+plat] {
				t.Errorf("%s: automatic (%s) != sequential (%s) for %s",
					id, byKey["Automatic|"+plat], byKey["None|"+plat], plat)
			}
		}
	}
}

func TestAutoparExperimentVerdicts(t *testing.T) {
	e, err := Get("autopar")
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(testCfg)
	if err != nil {
		t.Fatal(err)
	}
	tb := res.Tables[0]
	practical := map[string]string{}
	for _, row := range tb.Rows {
		practical[row[0]] = row[2]
	}
	for name, want := range map[string]string{
		"Program 1: sequential Threat Analysis": "no",
		"Program 3: sequential Terrain Masking": "no",
	} {
		if practical[name] != want {
			t.Errorf("%s practical = %q, want %q", name, practical[name], want)
		}
	}
	if !strings.Contains(res.Text, "num_intervals") {
		t.Error("autopar feedback does not mention num_intervals")
	}
	// Controls: the analyzer parallelizes what is actually parallel.
	ctl := res.Tables[1]
	for _, row := range ctl.Rows {
		if row[0] == "vector add" && row[1] != "PARALLELIZED" {
			t.Errorf("vector add verdict = %q", row[1])
		}
		if row[0] == "1-d stencil" && row[1] != "NOT PARALLELIZED" {
			t.Errorf("stencil verdict = %q", row[1])
		}
	}
}

func TestFineGrainedStylePracticalOnlyOnMTA(t *testing.T) {
	// Ablation: fine-grained TM should be much worse than coarse on the
	// Exemplar, while on the MTA fine-grained is the practical approach.
	coarse := sec(t, testX, tmCoarse(testX, "exemplar", 16, 16, tmBlocks))
	fine := sec(t, testX, tmFine(testX, "exemplar", 16))
	if fine < coarse*1.5 {
		t.Errorf("fine (%.1f) vs coarse (%.1f) on Exemplar: want ≥ 1.5x worse", fine, coarse)
	}
}

func TestRouteSequentialOrdering(t *testing.T) {
	// The suite's irregular workload: dependent scattered loads are nearly
	// free under a cache that holds the distance array and expose the full
	// memory latency on the cache-less MTA, so the sequential gap is at
	// least as dramatic as Threat Analysis's.
	alpha := sec(t, testX, extSeq(testX, RO, "alpha", 1))
	tera := sec(t, testX, extSeq(testX, RO, "tera", 1))
	if r := tera / alpha; r < 10 || r > 40 {
		t.Errorf("tera/alpha = %.1f, want 10-40 (pointer-chasing exposes full latency)", r)
	}
}

func TestRouteMTAScalesWhileSMPsSaturate(t *testing.T) {
	// The acceptance shape for the third workload: the MTA's fine-grained
	// variant keeps scaling with streams, while the cached SMPs saturate at
	// their processor counts and memory systems, then degrade.
	fine1 := sec(t, testX, extFine(testX, RO, "tera", 1, 1))
	fine128 := sec(t, testX, extFine(testX, RO, "tera", 1, 128))
	mtaSpeedup := fine1 / fine128
	if mtaSpeedup < 8 {
		t.Errorf("MTA fine-grained speedup at 128 threads = %.1f, want ≥ 8", mtaSpeedup)
	}

	ex1 := sec(t, testX, extCoarse(testX, RO, "exemplar", 16, 1))
	ex16 := sec(t, testX, extCoarse(testX, RO, "exemplar", 16, 16))
	ex128 := sec(t, testX, extCoarse(testX, RO, "exemplar", 16, 128))
	if ex16 >= ex1 {
		t.Errorf("Exemplar coarse did not speed up at all: %.1f s at 16 workers vs %.1f s at 1", ex16, ex1)
	}
	if s := ex1 / ex16; s >= mtaSpeedup {
		t.Errorf("Exemplar speedup %.1f not below MTA's %.1f — the SMP should saturate first", s, mtaSpeedup)
	}
	if ex128 < ex16 {
		t.Errorf("Exemplar kept scaling past saturation: %.1f s at 128 workers vs %.1f s at 16", ex128, ex16)
	}

	pp1 := sec(t, testX, extCoarse(testX, RO, "ppro", 4, 1))
	pp4 := sec(t, testX, extCoarse(testX, RO, "ppro", 4, 4))
	if s := pp1 / pp4; s < 1.3 || s > 4.2 {
		t.Errorf("PPro 4-worker speedup = %.1f, want modest (bus-bound)", s)
	}
}

func TestRouteFineGrainedImpracticalOnSMP(t *testing.T) {
	// The Tera style (a crowd of threads per wavefront, per-word sync) must
	// be far worse than the coarse crew on a conventional SMP.
	coarse := sec(t, testX, extCoarse(testX, RO, "exemplar", 16, 16))
	fine := sec(t, testX, extFine(testX, RO, "exemplar", 16, fineCompare))
	if fine < coarse*1.5 {
		t.Errorf("fine (%.1f) vs coarse (%.1f) on Exemplar: want ≥ 1.5x worse", fine, coarse)
	}
}

func TestPlotSequentialOrdering(t *testing.T) {
	// The suite's synchronization-heavy workload: the bid loop's price
	// chasing is dependent-load bound, so the cache-less MTA pays a
	// dramatic sequential penalty, like the other workloads.
	alpha := sec(t, testX, extSeq(testX, PT, "alpha", 1))
	tera := sec(t, testX, extSeq(testX, PT, "tera", 1))
	if r := tera / alpha; r < 6 || r > 30 {
		t.Errorf("tera/alpha = %.1f, want 6-30 (price chasing exposes full latency)", r)
	}
}

func TestPlotMTAScalesWhileSMPsSaturate(t *testing.T) {
	// The acceptance shape for the fourth workload: the MTA's asynchronous
	// auction keeps scaling with streams, while the cached SMPs saturate at
	// their processor counts and lock traffic, then degrade.
	fine1 := sec(t, testX, extFine(testX, PT, "tera", 1, 1))
	fine128 := sec(t, testX, extFine(testX, PT, "tera", 1, 128))
	mtaSpeedup := fine1 / fine128
	if mtaSpeedup < 8 {
		t.Errorf("MTA fine-grained speedup at 128 threads = %.1f, want ≥ 8", mtaSpeedup)
	}

	ex1 := sec(t, testX, extCoarse(testX, PT, "exemplar", 16, 1))
	exBest := sec(t, testX, extCoarse(testX, PT, "exemplar", 16, 4))
	ex128 := sec(t, testX, extCoarse(testX, PT, "exemplar", 16, 128))
	if exBest >= ex1 {
		t.Errorf("Exemplar coarse did not speed up at all: %.1f s at 4 workers vs %.1f s at 1", exBest, ex1)
	}
	if s := ex1 / exBest; s >= mtaSpeedup {
		t.Errorf("Exemplar speedup %.1f not below MTA's %.1f — the SMP should saturate first", s, mtaSpeedup)
	}
	if ex128 < exBest {
		t.Errorf("Exemplar kept scaling past saturation: %.1f s at 128 workers vs %.1f s at 4", ex128, exBest)
	}
}

func TestPlotFineGrainedImpracticalOnSMP(t *testing.T) {
	// The Tera style (a crowd of bid threads per frame, full/empty commits)
	// must be far worse than the coarse crew on a conventional SMP.
	coarse := sec(t, testX, extCoarse(testX, PT, "exemplar", 16, 16))
	fine := sec(t, testX, extFine(testX, PT, "exemplar", 16, fineCompare))
	if fine < coarse*1.5 {
		t.Errorf("fine (%.1f) vs coarse (%.1f) on Exemplar: want ≥ 1.5x worse", fine, coarse)
	}
}

func TestPlotPipelinedAblationShape(t *testing.T) {
	// The perfect-lookahead re-pricing must help the lone MTA stream but
	// not erase the gap: latency hiding needs threads, not lookahead.
	res, err := runPlotPipelined(testX)
	if err != nil {
		t.Fatal(err)
	}
	row := res.Tables[0].Rows[0]
	dep, pipe := row[1], row[2]
	var d, p float64
	if _, err := fmt.Sscanf(dep, "%f", &d); err != nil {
		t.Fatalf("calibrated cell %q: %v", dep, err)
	}
	if _, err := fmt.Sscanf(pipe, "%f", &p); err != nil {
		t.Fatalf("pipelined cell %q: %v", pipe, err)
	}
	if !(p < d) {
		t.Errorf("pipelined %.2f not below calibrated %.2f", p, d)
	}
	if p < d*0.3 {
		t.Errorf("pipelined %.2f vs %.2f: lookahead should not erase most of the time", p, d)
	}
}

func TestHypoSequentialOrdering(t *testing.T) {
	// The suite's reduction-heavy workload: the scoring loop's evidence
	// commits are scattered read-modify-writes, so the cache-less MTA pays a
	// substantial sequential penalty, like the other workloads.
	alpha := sec(t, testX, extSeq(testX, HT, "alpha", 1))
	tera := sec(t, testX, extSeq(testX, HT, "tera", 1))
	if r := tera / alpha; r < 4 || r > 30 {
		t.Errorf("tera/alpha = %.1f, want 4-30 (scatter-adds expose full latency)", r)
	}
}

func TestHypoMTAScalesWhileSMPsSaturate(t *testing.T) {
	// The acceptance shape for the fifth workload: the MTA's asynchronous
	// scatter-add reduction keeps scaling with streams, while on the cached
	// SMPs the crew overhead (OS thread creation, the merge's linear-in-
	// workers partial-buffer traffic) swamps the small reduction almost
	// immediately. Run at full scale so the SMP crew has its best case.
	big := &Exec{Cfg: Config{Scales: map[string]float64{HT: 1}}, ctx: context.Background(), runner: sharedRunner}
	fine1 := sec(t, big, extFine(big, HT, "tera", 1, 1))
	fine128 := sec(t, big, extFine(big, HT, "tera", 1, 128))
	mtaSpeedup := fine1 / fine128
	if mtaSpeedup < 8 {
		t.Errorf("MTA fine-grained speedup at 128 threads = %.1f, want ≥ 8", mtaSpeedup)
	}
	ex1 := sec(t, big, extCoarse(big, HT, "exemplar", 16, 1))
	exBest := ex1
	for _, w := range []int{2, 4, 8} {
		s := sec(t, big, extCoarse(big, HT, "exemplar", 16, w))
		if s < exBest {
			exBest = s
		}
	}
	ex16 := sec(t, big, extCoarse(big, HT, "exemplar", 16, 16))
	if exBest >= ex1 {
		t.Errorf("Exemplar coarse never beat one worker: best %.2f s vs %.2f s", exBest, ex1)
	}
	if s := ex1 / exBest; s >= mtaSpeedup {
		t.Errorf("Exemplar speedup %.1f not below MTA's %.1f — the SMP should saturate first", s, mtaSpeedup)
	}
	if ex16 < exBest {
		t.Errorf("Exemplar kept scaling to 16 workers: %.2f s vs best %.2f s — crew overhead should bite", ex16, exBest)
	}
}

func TestHypoFineGrainedImpracticalOnSMP(t *testing.T) {
	// The Tera style (a thread per observation, full/empty evidence commits)
	// must be clearly worse than the coarse crew on a conventional SMP.
	coarse := sec(t, testX, extCoarse(testX, HT, "exemplar", 16, 16))
	fine := sec(t, testX, extFine(testX, HT, "exemplar", 16, fineCompare))
	if fine < coarse*1.5 {
		t.Errorf("fine (%.1f) vs coarse (%.1f) on Exemplar: want ≥ 1.5x worse", fine, coarse)
	}
}

func TestHypoGridOneRecordPerPoint(t *testing.T) {
	// The grid sweep experiment must execute exactly the declared grid: one
	// validated record per point, in the grid's canonical order, every
	// record carrying a checksum, and all records at one semantic point
	// (same scale and params, different network) agreeing on it.
	pts, err := run.GridSpecs(HT, "fine", "tera", 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Get2(t, "ht-grid").Run(testCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != len(pts) {
		t.Fatalf("%d records for %d declared grid points", len(res.Records), len(pts))
	}
	byBinding := map[string]run.Checksum{}
	for i, rec := range res.Records {
		if rec.Key != pts[i].Spec.Key() {
			t.Errorf("record %d key %s, want grid order %s", i, rec.Key, pts[i].Spec.Key())
		}
		if rec.Checksum == 0 {
			t.Errorf("record %d (%s): no checksum on a validated grid run", i, rec.Key)
		}
		bind := fmt.Sprintf("s%g|%s", rec.Spec.Scale, rec.Spec.Params.String())
		if prev, ok := byBinding[bind]; ok && prev != rec.Checksum {
			t.Errorf("binding %s: checksum changed with the network axis: %016x vs %016x",
				bind, uint64(rec.Checksum), uint64(prev))
		}
		byBinding[bind] = rec.Checksum
	}
	if len(res.Tables) != 1 || len(res.Tables[0].Rows) != len(pts) {
		t.Errorf("grid table does not have one row per point")
	}
}

// Get2 is Get with the error folded into the test.
func Get2(t *testing.T, id string) Experiment {
	t.Helper()
	e, err := Get(id)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// render flattens an experiment result to one comparable string.
func render(res *Result) string {
	if res == nil {
		return ""
	}
	var sb strings.Builder
	for _, tb := range res.Tables {
		sb.WriteString(tb.Render())
	}
	for _, fig := range res.Figures {
		sb.WriteString(fig.Render(56, 16))
	}
	sb.WriteString(res.Text)
	return sb.String()
}

// fakeRecord is a synthetic Record for spec: enough for every body to
// render, without running an engine.
func fakeRecord(spec run.Spec) run.Record {
	return run.Record{Spec: spec, Key: spec.Key(), ModelSeconds: 1, PaperSeconds: 1,
		Stats: machine.Stats{ProcUtil: []float64{1}}}
}

// serialExecutor is a Run-only executor, like perfbench's cell timer. It
// records every Run's key and the most Runs it ever saw at once.
type serialExecutor struct {
	mu       sync.Mutex
	keys     []string
	inflight int
	maxAtOne int
}

func (s *serialExecutor) Run(_ context.Context, spec run.Spec) (run.Record, error) {
	s.mu.Lock()
	s.inflight++
	s.maxAtOne = max(s.maxAtOne, s.inflight)
	s.keys = append(s.keys, spec.Key())
	s.mu.Unlock()
	time.Sleep(time.Microsecond) // widen the window a second concurrent Run would land in
	s.mu.Lock()
	s.inflight--
	s.mu.Unlock()
	return fakeRecord(spec), nil
}

// batchCounter counts the Run and RunAll calls it receives.
type batchCounter struct{ runs, batches int }

func (b *batchCounter) Run(_ context.Context, spec run.Spec) (run.Record, error) {
	b.runs++
	return fakeRecord(spec), nil
}

func (b *batchCounter) RunAll(_ context.Context, specs []run.Spec) ([]run.Record, error) {
	b.batches++
	recs := make([]run.Record, len(specs))
	for i, spec := range specs {
		recs[i] = fakeRecord(spec)
	}
	return recs, nil
}

// goldenKeys reads each experiment's Record keys, in order, from the
// committed golden set.
func goldenKeys(t *testing.T) map[string][]string {
	t.Helper()
	buf, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string][]goldenRecord
	if err := json.Unmarshal(buf, &golden); err != nil {
		t.Fatal(err)
	}
	keys := map[string][]string{}
	for id, recs := range golden {
		for _, r := range recs {
			keys[id] = append(keys[id], r.Key)
		}
	}
	return keys
}

func TestRunOnlyExecutorSeesCellsSeriallyInOrder(t *testing.T) {
	// A Run-only executor gets one Run per cell, never two at once, in the
	// order the body declares its cells, which is the golden set's order;
	// Result.Records follows the same order. perfbench's paper-* workloads
	// time cells through such an executor and rely on this call sequence.
	want := goldenKeys(t)
	for _, e := range All() {
		ex := &serialExecutor{}
		res, err := e.Run(Config{Scales: testCfg.Scales, Executor: ex})
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if ex.maxAtOne > 1 {
			t.Errorf("%s: %d Runs at once, want 1", e.ID, ex.maxAtOne)
		}
		if !slices.Equal(ex.keys, want[e.ID]) {
			t.Errorf("%s: Run calls %v, want the golden order %v", e.ID, ex.keys, want[e.ID])
		}
		var got []string
		for _, rec := range res.Records {
			got = append(got, rec.Key)
		}
		if !slices.Equal(got, ex.keys) {
			t.Errorf("%s: Result.Records %v, want the call order %v", e.ID, got, ex.keys)
		}
	}
}

func TestBatchExecutorSeesOneRunAllPerExperiment(t *testing.T) {
	// An executor that runs batches gets each experiment's cells in one
	// RunAll call (none for an experiment without cells) and no Run calls.
	want := goldenKeys(t)
	for _, e := range All() {
		ex := &batchCounter{}
		res, err := e.Run(Config{Scales: testCfg.Scales, Executor: ex})
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		wantBatches := 0
		if len(want[e.ID]) > 0 {
			wantBatches = 1
		}
		if ex.batches != wantBatches || ex.runs != 0 {
			t.Errorf("%s: %d RunAll and %d Run calls, want %d RunAll and no Run",
				e.ID, ex.batches, ex.runs, wantBatches)
		}
		if len(res.Records) != len(want[e.ID]) {
			t.Errorf("%s: %d Records, want %d", e.ID, len(res.Records), len(want[e.ID]))
		}
	}
}

func TestRunManyParallelMatchesSerial(t *testing.T) {
	// Running each experiment's cells four at a time must reproduce the
	// serial run's tables, figures and Records (host time aside), experiment
	// by experiment; an unknown ID fails on its own and the experiments after
	// it still run.
	ids := []string{"table1", "table2", "table5", "autopar", "no-such-experiment", "ro-sequential"}
	sweep := func(jobs int) (rendered, records map[string]string) {
		rendered, records = map[string]string{}, map[string]string{}
		cfg := Config{Scales: testCfg.Scales, Executor: run.NewRunner(jobs)}
		for _, id := range ids {
			e, err := Get(id)
			if id == "no-such-experiment" {
				if err == nil {
					t.Errorf("unknown ID %q did not error", id)
				}
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			res, err := e.Run(cfg)
			if err != nil {
				t.Fatalf("%s with %d jobs: %v", id, jobs, err)
			}
			for i := range res.Records {
				res.Records[i].HostElapsed = 0
			}
			buf, err := json.Marshal(res.Records)
			if err != nil {
				t.Fatal(err)
			}
			rendered[id], records[id] = render(res), string(buf)
		}
		return rendered, records
	}
	serialOut, serialRecs := sweep(1)
	parallelOut, parallelRecs := sweep(4)
	if len(serialOut) != len(ids)-1 || len(parallelOut) != len(ids)-1 {
		t.Fatalf("ran %d serial and %d parallel experiments, want %d each",
			len(serialOut), len(parallelOut), len(ids)-1)
	}
	for id := range serialOut {
		if serialOut[id] != parallelOut[id] {
			t.Errorf("%s: parallel output differs from serial", id)
		}
		if serialRecs[id] != parallelRecs[id] {
			t.Errorf("%s: parallel Records differ from serial", id)
		}
	}
}

func TestRunManyConcurrentSweep(t *testing.T) {
	// Experiments that share summary cells run concurrently on one Runner,
	// whose single-flight caches execute each distinct cell once; every
	// table must still materialize, and a shared cell reads the same in
	// every experiment that declares it.
	if testing.Short() {
		t.Skip("concurrent sweep is slow")
	}
	ids := []string{"table2", "table5", "table6", "table7", "ablation-streams"}
	runner := run.NewRunner(0)
	cfg := Config{Scales: testCfg.Scales, Executor: runner}
	results := make([]*Result, len(ids))
	errs := make([]error, len(ids))
	var wg sync.WaitGroup
	for i, id := range ids {
		e := Get2(t, id)
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = e.Run(cfg)
		}()
	}
	wg.Wait()
	seconds := map[string]float64{}
	for i, id := range ids {
		if errs[i] != nil {
			t.Fatalf("%s: %v", id, errs[i])
		}
		res := results[i]
		if len(res.Tables) == 0 || len(res.Tables[0].Rows) == 0 {
			t.Errorf("%s: empty result", id)
		}
		for _, rec := range res.Records {
			if s, ok := seconds[rec.Key]; ok && s != rec.PaperSeconds {
				t.Errorf("%s: cell %s reads %g s, another experiment read %g s", id, rec.Key, rec.PaperSeconds, s)
			}
			seconds[rec.Key] = rec.PaperSeconds
		}
	}
	if got := runner.Executions(); got != int64(len(seconds)) {
		t.Errorf("%d engine runs for %d distinct cells, want one each", got, len(seconds))
	}
}

func TestDefaultConfigCoversRegistry(t *testing.T) {
	cfg := DefaultConfig()
	for _, name := range []string{TA, TM, RO, PT} {
		if cfg.Scales[name] <= 0 {
			t.Errorf("DefaultConfig missing scale for %s", name)
		}
		if cfg.Scale(name) != cfg.Scales[name] {
			t.Errorf("Scale(%s) = %g, want %g", name, cfg.Scale(name), cfg.Scales[name])
		}
	}
	// Missing entries fall back to registry defaults rather than zero.
	if (Config{}).Scale(TA) <= 0 {
		t.Error("zero Config does not fall back to the registered default scale")
	}
}

func TestResultCarriesRecords(t *testing.T) {
	// Every model cell of a table must be backed by a raw run.Record — the
	// machine-readable counterpart the -json CLI mode and the CI model_s
	// gate consume.
	e, err := Get("table5")
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(testCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 2 {
		t.Fatalf("table5 produced %d records, want 2 (one and two MTA processors)", len(res.Records))
	}
	for i, rec := range res.Records {
		if rec.Spec.Workload != TA || rec.Spec.Variant != "coarse" || rec.Spec.Platform != "tera" {
			t.Errorf("record %d spec = %+v, want TA coarse on tera", i, rec.Spec)
		}
		if rec.Spec.Procs != i+1 {
			t.Errorf("record %d procs = %d, want %d", i, rec.Spec.Procs, i+1)
		}
		if rec.ModelSeconds <= 0 || rec.PaperSeconds <= 0 {
			t.Errorf("record %d has non-positive seconds: %+v", i, rec)
		}
		if rec.Key == "" || rec.Key != rec.Spec.Key() {
			t.Errorf("record %d key %q does not match its spec key %q", i, rec.Key, rec.Spec.Key())
		}
	}
}

func TestRecordsRoundTripThroughSpecs(t *testing.T) {
	// The acceptance property of the execution API: records serialized to
	// JSON (the `c3ibench -json` payload) and re-executed from their own
	// Specs on a fresh Runner reproduce identical ModelSeconds and Checksum.
	e, err := Get("table5")
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(testCfg)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := json.Marshal(res.Records)
	if err != nil {
		t.Fatal(err)
	}
	var decoded []run.Record
	if err := json.Unmarshal(buf, &decoded); err != nil {
		t.Fatal(err)
	}
	fresh := run.NewRunner(0)
	for i, rec := range decoded {
		again, err := fresh.Run(context.Background(), rec.Spec)
		if err != nil {
			t.Fatalf("re-executing record %d (%s): %v", i, rec.Key, err)
		}
		if again.ModelSeconds != rec.ModelSeconds {
			t.Errorf("record %d: re-run ModelSeconds %g != emitted %g", i, again.ModelSeconds, rec.ModelSeconds)
		}
		if again.Checksum != rec.Checksum {
			t.Errorf("record %d: re-run Checksum %016x != emitted %016x", i, uint64(again.Checksum), uint64(rec.Checksum))
		}
		if again.Key != rec.Key {
			t.Errorf("record %d: re-run Key %q != emitted %q", i, again.Key, rec.Key)
		}
	}
}

func TestGetUnknownExperiment(t *testing.T) {
	if _, err := Get("table99"); err == nil {
		t.Error("Get(table99) did not fail")
	}
}

func TestIDsMatchAll(t *testing.T) {
	ids := IDs()
	all := All()
	if len(ids) != len(all) {
		t.Fatalf("IDs() len %d != All() len %d", len(ids), len(all))
	}
	for i := range all {
		if ids[i] != all[i].ID {
			t.Errorf("IDs[%d] = %q, want %q", i, ids[i], all[i].ID)
		}
	}
}

func TestAblationNetworkNoteNamesCalibratedNetwork(t *testing.T) {
	// The note quotes the calibrated network factors the model runs with,
	// whatever they are calibrated to.
	res, err := Get2(t, "ablation-network").Run(Config{Scales: testCfg.Scales, Executor: &batchCounter{}})
	if err != nil {
		t.Fatal(err)
	}
	d := mta.DefaultParams(2)
	want := fmt.Sprintf("the calibrated model uses %g/%g", d.NetLatencyMult, d.NetBandwidthEff)
	if notes := strings.Join(res.Tables[0].Notes, "\n"); !strings.Contains(notes, want) {
		t.Errorf("notes %q do not say %q", notes, want)
	}
}
