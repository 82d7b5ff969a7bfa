package cs

import (
	"math"
	"testing"

	"wsndse/internal/dwt"
	"wsndse/internal/ecg"
	"wsndse/internal/numeric"
	"wsndse/internal/quality"
)

func TestNewSensingMatrixValidation(t *testing.T) {
	if _, err := NewSensingMatrix(0, 10, 1, 1); err == nil {
		t.Error("m=0: want error")
	}
	if _, err := NewSensingMatrix(10, 0, 1, 1); err == nil {
		t.Error("n=0: want error")
	}
	if _, err := NewSensingMatrix(10, 10, 0, 1); err == nil {
		t.Error("d=0: want error")
	}
	if _, err := NewSensingMatrix(10, 10, 11, 1); err == nil {
		t.Error("d>m: want error")
	}
}

func TestSensingMatrixStructure(t *testing.T) {
	m, n, d := 64, 256, 8
	phi, err := NewSensingMatrix(m, n, d, 42)
	if err != nil {
		t.Fatal(err)
	}
	dense := phi.Dense()
	want := 1 / math.Sqrt(float64(d))
	for j := 0; j < n; j++ {
		nonzero := 0
		for i := 0; i < m; i++ {
			v := dense.At(i, j)
			if v != 0 {
				nonzero++
				if math.Abs(v-want) > 1e-15 {
					t.Fatalf("entry (%d,%d) = %g, want %g", i, j, v, want)
				}
			}
		}
		if nonzero != d {
			t.Fatalf("column %d has %d nonzeros, want %d", j, nonzero, d)
		}
	}
}

func TestSensingMatrixDeterministic(t *testing.T) {
	a, _ := NewSensingMatrix(32, 128, 4, 7)
	b, _ := NewSensingMatrix(32, 128, 4, 7)
	c, _ := NewSensingMatrix(32, 128, 4, 8)
	x := make([]float64, 128)
	for i := range x {
		x[i] = float64(i%13) - 6
	}
	ya, yb, yc := a.Apply(x), b.Apply(x), c.Apply(x)
	diff := false
	for i := range ya {
		if ya[i] != yb[i] {
			t.Fatalf("same seed produced different projections at %d", i)
		}
		if ya[i] != yc[i] {
			diff = true
		}
	}
	if !diff {
		t.Error("different seeds produced identical projections")
	}
}

func TestApplyMatchesDense(t *testing.T) {
	phi, _ := NewSensingMatrix(16, 64, 4, 3)
	x := make([]float64, 64)
	for i := range x {
		x[i] = math.Sin(float64(i) / 3)
	}
	sparse := phi.Apply(x)
	dense := phi.Dense().MulVec(x)
	for i := range sparse {
		if math.Abs(sparse[i]-dense[i]) > 1e-12 {
			t.Fatalf("row %d: sparse %g vs dense %g", i, sparse[i], dense[i])
		}
	}
}

func TestApplyPanicsOnWrongLength(t *testing.T) {
	phi, _ := NewSensingMatrix(16, 64, 4, 3)
	defer func() {
		if recover() == nil {
			t.Error("Apply with wrong length should panic")
		}
	}()
	phi.Apply(make([]float64, 10))
}

func newTestCodec() *Codec {
	return NewCodec(512, dwt.Daubechies4(), 5, 99)
}

func ecgBlocks(t *testing.T, blocks int) [][]float64 {
	t.Helper()
	g, err := ecg.NewGenerator(ecg.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return g.Corpus(blocks, 512)
}

func TestCompressRespectsBudget(t *testing.T) {
	block := ecgBlocks(t, 1)[0]
	c := newTestCodec()
	for _, cr := range []float64{0.17, 0.23, 0.29, 0.38} {
		z, err := c.Compress(block, cr, 12)
		if err != nil {
			t.Fatalf("cr=%g: %v", cr, err)
		}
		budget := cr * 512 * 12 / 8
		if float64(z.Size()) > budget {
			t.Errorf("cr=%g: encoded %d bytes exceeds budget %.1f", cr, z.Size(), budget)
		}
		if z.Measurements < 8 {
			t.Errorf("cr=%g: only %d measurements", cr, z.Measurements)
		}
	}
}

func TestCompressDecompressReconstructs(t *testing.T) {
	block := ecgBlocks(t, 1)[0]
	c := newTestCodec()
	z, err := c.Compress(block, 0.38, 12)
	if err != nil {
		t.Fatal(err)
	}
	y, err := c.Decompress(z.Payload)
	if err != nil {
		t.Fatal(err)
	}
	prd, err := quality.PRD(block, y)
	if err != nil {
		t.Fatal(err)
	}
	// CS at the highest case-study rate should reconstruct reasonably;
	// it is allowed to be worse than DWT but must capture the signal.
	if prd > 35 {
		t.Errorf("PRD at CR=0.38 is %.1f%%, want < 35%%", prd)
	}
}

func TestCSQualityImprovesWithRate(t *testing.T) {
	// Average over a few blocks to smooth OMP variance, then require the
	// PRD at the highest rate to clearly beat the lowest rate.
	blocks := ecgBlocks(t, 4)
	c := newTestCodec()
	avg := func(cr float64) float64 {
		var sum float64
		for _, b := range blocks {
			z, err := c.Compress(b, cr, 12)
			if err != nil {
				t.Fatal(err)
			}
			y, err := c.Decompress(z.Payload)
			if err != nil {
				t.Fatal(err)
			}
			prd, _ := quality.PRD(b, y)
			sum += prd
		}
		return sum / float64(len(blocks))
	}
	lo, hi := avg(0.17), avg(0.38)
	if hi >= lo {
		t.Errorf("PRD at CR=0.38 (%.1f%%) not better than at CR=0.17 (%.1f%%)", hi, lo)
	}
}

func TestCompressValidation(t *testing.T) {
	c := newTestCodec()
	block := ecgBlocks(t, 1)[0]
	if _, err := c.Compress(block[:100], 0.3, 12); err == nil {
		t.Error("wrong block length: want error")
	}
	if _, err := c.Compress(block, 0, 12); err == nil {
		t.Error("cr=0: want error")
	}
	if _, err := c.Compress(block, 2, 12); err == nil {
		t.Error("cr>1: want error")
	}
	if _, err := c.Compress(block, math.NaN(), 12); err == nil {
		t.Error("cr=NaN: want error")
	}
	if _, err := c.Compress(block, 0.3, 0); err == nil {
		t.Error("sampleBits=0: want error")
	}
	if _, err := c.Compress(block, 0.01, 12); err == nil {
		t.Error("cr below measurement floor: want error")
	}
	bad := newTestCodec()
	bad.MeasBits = 1
	if _, err := bad.Compress(block, 0.3, 12); err == nil {
		t.Error("MeasBits=1: want error")
	}
}

func TestDecompressValidation(t *testing.T) {
	c := newTestCodec()
	if _, err := c.Decompress(nil); err == nil {
		t.Error("nil payload: want error")
	}
	if _, err := c.Decompress(make([]byte, 4)); err == nil {
		t.Error("short payload: want error")
	}
	block := ecgBlocks(t, 1)[0]
	z, err := c.Compress(block, 0.3, 12)
	if err != nil {
		t.Fatal(err)
	}
	// Wrong codec geometry.
	other := NewCodec(256, dwt.Daubechies4(), 4, 99)
	if _, err := other.Decompress(z.Payload); err == nil {
		t.Error("mismatched block length: want error")
	}
	// Truncated payload.
	if _, err := c.Decompress(z.Payload[:len(z.Payload)-3]); err == nil {
		t.Error("truncated payload: want error")
	}
}

func TestMinCRBoundary(t *testing.T) {
	c := newTestCodec()
	block := ecgBlocks(t, 1)[0]
	min := c.MinCR(12)
	if _, err := c.Compress(block, min, 12); err != nil {
		t.Errorf("compress at MinCR=%.4f should succeed: %v", min, err)
	}
}

// TestOMPRecoversExactlySparseSignal is the classic CS sanity check: a
// signal that is genuinely K-sparse in the wavelet basis is recovered
// near-exactly from ~4K measurements (up to measurement quantization).
func TestOMPRecoversExactlySparseSignal(t *testing.T) {
	w := dwt.Daubechies4()
	n, levels := 256, 4
	coeffs := make([]float64, n)
	// 10-sparse coefficient vector at scattered positions.
	positions := []int{0, 3, 7, 16, 31, 50, 90, 130, 180, 240}
	for i, p := range positions {
		coeffs[p] = 5 - float64(i)*0.4
	}
	x, err := dwt.Inverse(w, coeffs, levels)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCodec(n, w, levels, 5)
	c.MeasBits = 16 // minimize quantization noise for this check
	z, err := c.Compress(x, 0.45, 16)
	if err != nil {
		t.Fatal(err)
	}
	y, err := c.Decompress(z.Payload)
	if err != nil {
		t.Fatal(err)
	}
	prd, _ := quality.PRD(x, y)
	if prd > 2 {
		t.Errorf("exactly sparse signal recovered with PRD %.2f%%, want < 2%%", prd)
	}
}

func TestDictionaryCaching(t *testing.T) {
	c := newTestCodec()
	d1, err := c.dictionary(100)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := c.dictionary(100)
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Error("dictionary not cached")
	}
	d3, err := c.dictionary(120)
	if err != nil {
		t.Fatal(err)
	}
	if d3 == d1 {
		t.Error("distinct m should build distinct dictionaries")
	}
}

func TestOMPZeroMeasurement(t *testing.T) {
	c := newTestCodec()
	d, err := c.dictionary(64)
	if err != nil {
		t.Fatal(err)
	}
	alpha := d.omp(make([]float64, 64), 10, 1e-3)
	if numeric.Norm2(alpha) != 0 {
		t.Error("zero measurements should decode to zero coefficients")
	}
}
