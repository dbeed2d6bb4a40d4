package experiments

// The paper's published measurements, used as the reference columns of every
// reproduced table and figure. All times are seconds, totals over the five
// benchmark input scenarios. Tables 7 and 12 repeat rows of Tables 2–5 and
// 8–11, so they read their paper column from those.

// PaperTable2 — sequential Threat Analysis without parallelization.
var PaperTable2 = map[string]float64{
	"Alpha":       187,
	"Pentium Pro": 458,
	"Exemplar":    343,
	"Tera":        2584,
}

// PaperTable3 — multithreaded Threat Analysis on the quad Pentium Pro.
// Index 0 is the sequential program; indices 1–4 are processor counts.
var PaperTable3 = map[int]float64{0: 458, 1: 466, 2: 233, 3: 157, 4: 117}

// PaperTable4 — multithreaded Threat Analysis on the 16-processor Exemplar.
var PaperTable4 = map[int]float64{
	0: 343, 1: 343, 2: 172, 3: 115, 4: 87, 5: 69, 6: 58, 7: 50, 8: 43,
	9: 39, 10: 35, 11: 32, 12: 29, 13: 27, 14: 26, 15: 24, 16: 22,
}

// PaperTable5 — multithreaded Threat Analysis on the Tera MTA (256 chunks).
var PaperTable5 = map[int]float64{1: 82, 2: 46}

// PaperTable6 — Threat Analysis on the dual-processor Tera MTA versus the
// number of chunks.
var PaperTable6 = map[int]float64{8: 386, 16: 197, 32: 104, 64: 61, 128: 46, 256: 46}

// PaperTable8 — sequential Terrain Masking without parallelization.
var PaperTable8 = map[string]float64{
	"Alpha":       158,
	"Pentium Pro": 197,
	"Exemplar":    228,
	"Tera":        978,
}

// PaperTable9 — coarse-grained Terrain Masking on the quad Pentium Pro.
var PaperTable9 = map[int]float64{0: 197, 1: 172, 2: 97, 3: 74, 4: 65}

// PaperTable10 — coarse-grained Terrain Masking on the 16-processor
// Exemplar (the paper's noisy plateau).
var PaperTable10 = map[int]float64{
	0: 228, 1: 228, 2: 102, 3: 90, 4: 59, 5: 62, 6: 43, 7: 51, 8: 37,
	9: 49, 10: 34, 11: 41, 12: 34, 13: 32, 14: 40, 15: 41, 16: 37,
}

// PaperTable11 — fine-grained Terrain Masking on the Tera MTA.
var PaperTable11 = map[int]float64{1: 48, 2: 34}
