package dwt

import (
	"math"
	"testing"

	"wsndse/internal/ecg"
	"wsndse/internal/quality"
)

func ecgBlock(t *testing.T, n int) []float64 {
	t.Helper()
	g, err := ecg.NewGenerator(ecg.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return g.Generate(n)
}

func TestCompressRespectsBudget(t *testing.T) {
	block := ecgBlock(t, 512)
	c := NewCodec(Daubechies4(), 5)
	for _, cr := range []float64{0.17, 0.2, 0.23, 0.26, 0.29, 0.32, 0.35, 0.38, 1.0} {
		z, err := c.Compress(block, cr, 12)
		if err != nil {
			t.Fatalf("cr=%g: %v", cr, err)
		}
		budget := cr * 512 * 12 / 8
		if float64(z.Size()) > budget {
			t.Errorf("cr=%g: encoded %d bytes exceeds budget %.1f", cr, z.Size(), budget)
		}
		// The encoder should use most of the budget (within one
		// coefficient's worth of slack).
		if float64(z.Size()) < budget-3 {
			t.Errorf("cr=%g: encoded %d bytes, budget %.1f left unused", cr, z.Size(), budget)
		}
	}
}

func TestCompressDecompressRoundTrip(t *testing.T) {
	block := ecgBlock(t, 512)
	c := NewCodec(Daubechies4(), 5)
	z, err := c.Compress(block, 0.38, 12)
	if err != nil {
		t.Fatal(err)
	}
	y, err := Decompress(z.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(y) != len(block) {
		t.Fatalf("reconstructed %d samples, want %d", len(y), len(block))
	}
	prd, err := quality.PRD(block, y)
	if err != nil {
		t.Fatal(err)
	}
	if prd > 20 {
		t.Errorf("PRD at CR=0.38 is %.2f%%, want decent reconstruction (<20%%)", prd)
	}
}

func TestPRDMonotoneInCR(t *testing.T) {
	// More budget (higher CR) must not noticeably worsen reconstruction.
	block := ecgBlock(t, 512)
	c := NewCodec(Daubechies4(), 5)
	var prev float64 = math.Inf(1)
	for _, cr := range []float64{0.17, 0.23, 0.29, 0.35} {
		z, err := c.Compress(block, cr, 12)
		if err != nil {
			t.Fatal(err)
		}
		y, err := Decompress(z.Payload)
		if err != nil {
			t.Fatal(err)
		}
		prd, _ := quality.PRD(block, y)
		if prd > prev*1.05 { // small tolerance for quantizer interactions
			t.Errorf("PRD at CR=%g is %.2f%%, worse than at lower CR (%.2f%%)", cr, prd, prev)
		}
		prev = prd
	}
}

func TestCompressAllZeroBlock(t *testing.T) {
	c := NewCodec(Haar(), 3)
	z, err := c.Compress(make([]float64, 64), 0.5, 12)
	if err != nil {
		t.Fatal(err)
	}
	y, err := Decompress(z.Payload)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range y {
		if v != 0 {
			t.Fatalf("sample %d = %g, want 0", i, v)
		}
	}
}

func TestCompressParameterErrors(t *testing.T) {
	block := ecgBlock(t, 512)
	c := NewCodec(Daubechies4(), 5)
	if _, err := c.Compress(block, 0, 12); err == nil {
		t.Error("cr=0: want error")
	}
	if _, err := c.Compress(block, 1.5, 12); err == nil {
		t.Error("cr>1: want error")
	}
	if _, err := c.Compress(block, math.NaN(), 12); err == nil {
		t.Error("cr=NaN: want error")
	}
	if _, err := c.Compress(block, 0.5, 0); err == nil {
		t.Error("sampleBits=0: want error")
	}
	if _, err := c.Compress(block, 0.02, 12); err == nil {
		t.Error("cr below bitmap floor: want error")
	}
	bad := NewCodec(Daubechies4(), 5)
	bad.CoeffBits = 1
	if _, err := bad.Compress(block, 0.5, 12); err == nil {
		t.Error("CoeffBits=1: want error")
	}
	huge := make([]float64, 1<<17)
	if _, err := c.Compress(huge, 0.5, 12); err == nil {
		t.Error("oversized block: want encoding-limit error")
	}
}

func TestMinCR(t *testing.T) {
	c := NewCodec(Daubechies4(), 5)
	min := c.MinCR(512, 12)
	block := ecgBlock(t, 512)
	if _, err := c.Compress(block, min, 12); err != nil {
		t.Errorf("compress at MinCR=%.4f should succeed: %v", min, err)
	}
	if _, err := c.Compress(block, min*0.8, 12); err == nil {
		t.Error("compress below MinCR should fail")
	}
}

func TestDecompressMalformed(t *testing.T) {
	cases := [][]byte{
		nil,
		make([]byte, 4),                 // short header
		{0, 2, 1, 42, 0, 0, 0, 0, 0, 0}, // unknown wavelet id
	}
	for i, p := range cases {
		if _, err := Decompress(p); err == nil {
			t.Errorf("case %d: malformed payload accepted", i)
		}
	}
	// Corrupt a valid payload's bitmap so the population count disagrees
	// with the header.
	c := NewCodec(Haar(), 3)
	z, err := c.Compress(ecgBlock(t, 64), 0.6, 12)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := append([]byte(nil), z.Payload...)
	corrupt[headerSize] ^= 0xFF
	if _, err := Decompress(corrupt); err == nil {
		t.Error("corrupted bitmap accepted")
	}
}

func TestKeptCountScalesWithCR(t *testing.T) {
	block := ecgBlock(t, 512)
	c := NewCodec(Daubechies4(), 5)
	lo, err := c.Compress(block, 0.17, 12)
	if err != nil {
		t.Fatal(err)
	}
	hi, err := c.Compress(block, 0.38, 12)
	if err != nil {
		t.Fatal(err)
	}
	if lo.Kept >= hi.Kept {
		t.Errorf("kept %d at CR=0.17 vs %d at CR=0.38; want strictly more at higher CR", lo.Kept, hi.Kept)
	}
	if lo.N != 512 || hi.N != 512 {
		t.Error("N not recorded")
	}
}
