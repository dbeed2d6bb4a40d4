package terrain

import (
	"math"
)

// Field is one threat's masking field over its ROI bounding box. Vals is
// row-major over the box; cells the ray fan never reaches stay +Inf (they
// are outside the region of influence).
type Field struct {
	X0, Y0 int // grid coordinates of the box origin
	W, H   int
	Vals   []float32
}

// NewField returns the +Inf-initialized field for a threat.
func NewField(t *ThreatSite) *Field {
	f := &Field{X0: t.X - t.R, Y0: t.Y - t.R, W: 2*t.R + 1, H: 2*t.R + 1}
	f.Vals = make([]float32, f.W*f.H)
	f.Reset()
	return f
}

// Reset restores every cell to +Inf.
func (f *Field) Reset() {
	inf := float32(math.Inf(1))
	for i := range f.Vals {
		f.Vals[i] = inf
	}
}

// At returns the field value at grid coordinates (x, y).
func (f *Field) At(x, y int) float32 {
	return f.Vals[(y-f.Y0)*f.W+(x-f.X0)]
}

// set lowers the field value at grid coordinates (min-combine).
func (f *Field) set(x, y int, v float32) {
	i := (y-f.Y0)*f.W + (x - f.X0)
	if v < f.Vals[i] {
		f.Vals[i] = v
	}
}

// Bytes returns the field's storage size — the per-thread temp-array memory
// the paper identifies as the coarse-grained approach's drawback.
func (f *Field) Bytes() uint64 { return uint64(len(f.Vals)) * 4 }

// NumRays returns the size of a threat's ray fan: one ray per perimeter cell
// of the ROI bounding box.
func NumRays(r int) int { return 8 * r }

// rayTarget returns the i-th perimeter cell of the box of radius r around
// (0,0), walking the perimeter clockwise from the top-left corner.
func rayTarget(r, i int) (dx, dy int) {
	side := 2 * r
	switch e := i / side; e {
	case 0: // top edge, left→right
		return -r + i%side, -r
	case 1: // right edge, top→bottom
		return r, -r + i%side
	case 2: // bottom edge, right→left
		return r - i%side, r
	default: // left edge, bottom→top
		return -r, r - i%side
	}
}

// TraceRay walks one ray of threat t outward by DDA, min-combining the
// masking altitude into the field, and returns the number of cells visited.
// The masking altitude at distance d is the sightline height over the
// highest interposing ridge: sensorZ + maxSlope·d, clamped at 0 (a cell with
// clear line of sight to the sensor offers no safe altitude). The slope of
// the current cell's own terrain joins the propagated maximum afterwards,
// so ridge cells themselves can still be masked by nearer ridges.
func TraceRay(g *Grid, t *ThreatSite, f *Field, ray int) int {
	dx, dy := rayTarget(t.R, ray)
	steps := dx
	if steps < 0 {
		steps = -steps
	}
	if dy > steps {
		steps = dy
	}
	if -dy > steps {
		steps = -dy
	}
	if steps == 0 {
		return 0
	}
	maxSlope := math.Inf(-1)
	visits := 0
	rr := float64(t.R) * float64(t.R)
	for i := 1; i <= steps; i++ {
		x := t.X + int(math.Round(float64(dx)*float64(i)/float64(steps)))
		y := t.Y + int(math.Round(float64(dy)*float64(i)/float64(steps)))
		cdx, cdy := float64(x-t.X), float64(y-t.Y)
		d2 := cdx*cdx + cdy*cdy
		if d2 > rr {
			break
		}
		d := math.Sqrt(d2) * CellMeters
		visits++
		alt := t.SensorZ + maxSlope*d
		if alt < 0 {
			alt = 0
		}
		f.set(x, y, float32(alt))
		slope := (float64(g.At(x, y)) - t.SensorZ) / d
		if slope > maxSlope {
			maxSlope = slope
		}
	}
	return visits
}

// Masking is a full-terrain masking result: the minimum over all processed
// threats, +Inf where no threat reaches.
type Masking struct {
	W, H int
	Vals []float32
}

// NewMasking returns the all-+Inf masking for a grid.
func NewMasking(g *Grid) *Masking {
	m := &Masking{W: g.W, H: g.H, Vals: make([]float32, g.W*g.H)}
	inf := float32(math.Inf(1))
	for i := range m.Vals {
		m.Vals[i] = inf
	}
	return m
}

// At returns the masking value at (x, y).
func (m *Masking) At(x, y int) float32 { return m.Vals[y*m.W+x] }

// MergeRow min-combines one row of a field into the masking and returns the
// number of finite cells merged.
func (m *Masking) MergeRow(f *Field, row int) int {
	y := f.Y0 + row
	merged := 0
	base := y * m.W
	fbase := row * f.W
	for i := 0; i < f.W; i++ {
		v := f.Vals[fbase+i]
		if math.IsInf(float64(v), 1) {
			continue
		}
		x := f.X0 + i
		if v < m.Vals[base+x] {
			m.Vals[base+x] = v
		}
		merged++
	}
	return merged
}

// MergeRowRange min-combines field row cells whose grid x lies in [x0, x1)
// into the masking — the block-wise merge used by the coarse variant.
func (m *Masking) MergeRowRange(f *Field, row, x0, x1 int) int {
	y := f.Y0 + row
	merged := 0
	base := y * m.W
	for x := x0; x < x1; x++ {
		v := f.Vals[row*f.W+(x-f.X0)]
		if math.IsInf(float64(v), 1) {
			continue
		}
		if v < m.Vals[base+x] {
			m.Vals[base+x] = v
		}
		merged++
	}
	return merged
}

// Equal reports whether two maskings are bitwise identical.
func (m *Masking) Equal(o *Masking) bool {
	if m.W != o.W || m.H != o.H {
		return false
	}
	for i, v := range m.Vals {
		ov := o.Vals[i]
		if v != ov && !(math.IsInf(float64(v), 1) && math.IsInf(float64(ov), 1)) {
			return false
		}
	}
	return true
}

// FiniteCells returns how many cells have a finite masking altitude — the
// union of the regions of influence.
func (m *Masking) FiniteCells() int {
	n := 0
	for _, v := range m.Vals {
		if !math.IsInf(float64(v), 1) {
			n++
		}
	}
	return n
}
