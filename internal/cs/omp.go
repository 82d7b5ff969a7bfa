package cs

import (
	"wsndse/internal/dwt"
	"wsndse/internal/numeric"
)

// dictionary holds the OMP dictionary A = Φ·Ψᵀ for one measurement count:
// column j is the projection through the sensing matrix of the j-th inverse
// wavelet basis vector. Reconstructing y ≈ A·α recovers the block's wavelet
// coefficients α, from which the signal follows by inverse transform.
type dictionary struct {
	m, n  int
	atoms *numeric.Matrix // m×n
	norms []float64       // column 2-norms
	// alen is the length of the approximation band (the first alen
	// coefficients). ECG blocks always have significant approximation
	// coefficients (DC level, baseline wander), so OMP pre-selects the
	// band rather than asking sparsity machinery to discover it.
	alen int
}

// dictEntry is one cache slot. The goroutine that inserts the entry owns
// the build; concurrent decoders at the same rate block on done instead of
// rebuilding, and decoders at other rates build in parallel because the
// codec mutex is released during the build.
type dictEntry struct {
	done chan struct{}
	d    *dictionary
	err  error
}

// dictionary returns the cached dictionary for m measurements, building it
// on first use. Building costs n inverse transforms plus n sparse
// projections and is amortized across all blocks decoded at this rate.
// Safe for concurrent use: the per-codec mutex guards only the map, never
// the build.
func (c *Codec) dictionary(m int) (*dictionary, error) {
	c.dictMu.Lock()
	if c.dicts == nil {
		c.dicts = make(map[int]*dictEntry)
	}
	if e, ok := c.dicts[m]; ok {
		c.dictMu.Unlock()
		<-e.done
		return e.d, e.err
	}
	e := &dictEntry{done: make(chan struct{})}
	c.dicts[m] = e
	c.dictMu.Unlock()

	e.d, e.err = c.buildDictionary(m)
	close(e.done)
	return e.d, e.err
}

// buildDictionary materializes A = Φ·Ψᵀ for m measurements.
func (c *Codec) buildDictionary(m int) (*dictionary, error) {
	phi, err := NewSensingMatrix(m, c.N, c.D, c.Seed)
	if err != nil {
		return nil, err
	}
	atoms := numeric.NewMatrix(m, c.N)
	norms := make([]float64, c.N)
	basis := make([]float64, c.N)
	for j := 0; j < c.N; j++ {
		basis[j] = 1
		psi, err := dwt.Inverse(c.Wavelet, basis, c.Levels)
		basis[j] = 0
		if err != nil {
			return nil, err
		}
		col := phi.Apply(psi)
		for i, v := range col {
			atoms.Set(i, j, v)
		}
		norms[j] = numeric.Norm2(col)
	}
	return &dictionary{m: m, n: c.N, atoms: atoms, norms: norms, alen: c.N >> c.Levels}, nil
}

// omp runs orthogonal matching pursuit: greedily select the dictionary atom
// most correlated with the residual, re-fit all selected atoms by least
// squares, and repeat until the residual is small or maxIter atoms are
// used. The approximation band is pre-selected (see dictionary.alen). The
// return value is the length-n sparse coefficient vector.
func (d *dictionary) omp(y []float64, maxIter int, tol float64) []float64 {
	alpha := make([]float64, d.n)
	residual := make([]float64, d.m)
	copy(residual, y)
	yNorm := numeric.Norm2(y)
	if yNorm == 0 {
		return alpha
	}
	stop := tol * yNorm

	support := make([]int, 0, d.alen+maxIter)
	inSupport := make([]bool, d.n)
	ne := d.newNormal(y, cap(support))
	for j := 0; j < d.alen && len(support) < d.m/2; j++ {
		support = append(support, j)
		inSupport[j] = true
		ne.add(j)
	}
	var coef []float64
	if len(support) > 0 {
		if c := ne.solve(); c != nil {
			coef = c
			ne.residual(coef, residual)
		}
	}

	for iter := 0; iter < maxIter; iter++ {
		// Correlation step: argmax_j |⟨r, a_j⟩| / ‖a_j‖.
		corr := d.atoms.TMulVec(residual)
		best, bestVal := -1, 0.0
		for j, cj := range corr {
			if inSupport[j] || d.norms[j] == 0 {
				continue
			}
			v := cj / d.norms[j]
			if v < 0 {
				v = -v
			}
			if v > bestVal {
				best, bestVal = j, v
			}
		}
		if best < 0 || bestVal < 1e-12*yNorm {
			break
		}
		support = append(support, best)
		inSupport[best] = true
		ne.add(best)

		c := ne.solve()
		if c == nil {
			// Numerically degenerate support (nearly parallel
			// atoms); drop the newest atom and stop refining.
			support = support[:len(support)-1]
			break
		}
		coef = c
		ne.residual(coef, residual)
		if numeric.Norm2(residual) <= stop {
			break
		}
	}
	for a, j := range support {
		if a < len(coef) {
			alpha[j] = coef[a]
		}
	}
	return alpha
}

// normal is the least-squares system of one OMP call's support, which
// grows by one atom per iteration: the support's atoms as contiguous
// columns, their Gram matrix without the ridge (row-major with stride
// size) and its running trace, and the right-hand side A_Sᵀy. Entries
// of atoms already in the support do not change, so each atom costs one
// Gram row and column, and every entry is summed in the order a rebuild
// of the whole matrix would sum it.
type normal struct {
	d       *dictionary
	y       []float64
	k, size int
	cols    []float64 // atom a of the support at cols[a*m : (a+1)*m]
	gram    []float64 // entry (a, b) at gram[a*size+b]
	rhs     []float64
	trace   float64 // Σ of the Gram diagonal, in support order
}

// newNormal returns the empty system for fitting y with at most size
// atoms.
func (d *dictionary) newNormal(y []float64, size int) *normal {
	return &normal{
		d:    d,
		y:    y,
		size: size,
		cols: make([]float64, size*d.m),
		gram: make([]float64, size*size),
		rhs:  make([]float64, size),
	}
}

// add appends atom j to the support.
func (ne *normal) add(j int) {
	m, k := ne.d.m, ne.k
	col := ne.cols[k*m : (k+1)*m]
	for i := range col {
		col[i] = ne.d.atoms.At(i, j)
	}
	for a := 0; a <= k; a++ {
		ca := ne.cols[a*m : (a+1)*m]
		var s float64
		for i := 0; i < m; i++ {
			s += ca[i] * col[i]
		}
		ne.gram[a*ne.size+k] = s
		ne.gram[k*ne.size+a] = s
	}
	ne.trace += ne.gram[k*ne.size+k]
	var s float64
	for i := 0; i < m; i++ {
		s += col[i] * ne.y[i]
	}
	ne.rhs[k] = s
	ne.k++
}

// solve solves min ‖y − A_S·c‖₂ + ε‖c‖₂ on the support via the normal
// equations. The small ridge term (ε = 10⁻⁴ of the mean Gram diagonal)
// keeps the estimate bounded when the support approaches the measurement
// dimension, where unmodeled-tail energy would otherwise be amplified by
// an ill-conditioned Gram matrix. It adds the ridge to a copy, and returns
// nil when the system is singular even with the ridge.
func (ne *normal) solve() []float64 {
	k := ne.k
	gram := numeric.NewMatrix(k, k)
	ridge := 1e-4 * ne.trace / float64(k)
	for a := 0; a < k; a++ {
		copy(gram.Row(a), ne.gram[a*ne.size:a*ne.size+k])
		gram.Set(a, a, gram.At(a, a)+ridge)
	}
	coef, err := gram.Solve(ne.rhs[:k])
	if err != nil {
		return nil
	}
	return coef
}

// residual computes r = y − A_S·coef into r.
func (ne *normal) residual(coef, r []float64) {
	m := ne.d.m
	copy(r, ne.y)
	for a, ca := range coef {
		col := ne.cols[a*m : (a+1)*m]
		for i := range r {
			r[i] -= ca * col[i]
		}
	}
}
