package cs

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"wsndse/internal/bitpack"
	"wsndse/internal/dwt"
)

// Codec is the compressed-sensing block codec. The sensor-side Compress is
// a sparse projection plus quantization; the coordinator-side Decompress
// runs orthogonal matching pursuit (OMP) against the wavelet dictionary.
//
// The sensing matrix is derived deterministically from (Seed, block size,
// measurement count), so encoder and decoder need no side channel beyond
// the codec configuration itself — mirroring a real deployment where the
// seed is fixed at pairing time.
type Codec struct {
	N        int         // block length in samples (must suit Wavelet/Levels)
	D        int         // ones per sensing-matrix column
	Seed     int64       // sensing matrix seed
	Wavelet  dwt.Wavelet // sparsity basis for reconstruction
	Levels   int         // decomposition depth of the basis
	MeasBits int         // quantizer resolution for measurements (12 = ADC width)

	// Per-m dictionary cache. dictMu guards only the map; dictionary
	// builds happen outside the lock with an in-flight entry, so one
	// codec can be shared by concurrent decoders (e.g. a coordinator
	// draining several sensors) without serializing on the build.
	dictMu sync.Mutex
	dicts  map[int]*dictEntry
}

// NewCodec returns a codec for n-sample blocks with the given sparsity
// basis. Defaults: column weight 8, 12-bit measurements.
func NewCodec(n int, w dwt.Wavelet, levels int, seed int64) *Codec {
	return &Codec{
		N:        n,
		D:        8,
		Seed:     seed,
		Wavelet:  w,
		Levels:   levels,
		MeasBits: 12,
		dicts:    make(map[int]*dictEntry),
	}
}

// Encoded block layout (little-endian):
//
//	offset size field
//	0      2    n, block length in samples
//	2      2    m, measurement count
//	4      4    quantizer scale (float32)
//	8      ⌈m·MeasBits/8⌉ quantized measurements
const headerSize = 8

// Block is one compressed block.
type Block struct {
	Payload      []byte
	Measurements int // m
	N            int
}

// Size returns the encoded size in bytes.
func (b *Block) Size() int { return len(b.Payload) }

// MinCR returns the smallest usable compression ratio for this codec: at
// least eight measurements must fit beside the header.
func (c *Codec) MinCR(sampleBits int) float64 {
	inBytes := float64(c.N) * float64(sampleBits) / 8
	minBytes := float64(headerSize) + math.Ceil(float64(8*c.MeasBits)/8)
	return minBytes / inBytes
}

// Compress projects the block through the sensing matrix sized to the byte
// budget cr·n·sampleBits/8 and quantizes the measurements.
func (c *Codec) Compress(block []float64, cr float64, sampleBits int) (*Block, error) {
	if len(block) != c.N {
		return nil, fmt.Errorf("cs: block has %d samples, codec expects %d", len(block), c.N)
	}
	if !(cr > 0 && cr <= 1) { // NaN fails too
		return nil, fmt.Errorf("cs: compression ratio %g out of range (0,1]", cr)
	}
	if sampleBits < 1 {
		return nil, fmt.Errorf("cs: sampleBits %d must be positive", sampleBits)
	}
	if c.MeasBits < 2 || c.MeasBits > 16 {
		return nil, fmt.Errorf("cs: MeasBits %d out of range [2,16]", c.MeasBits)
	}
	budget := int(math.Floor(cr * float64(c.N) * float64(sampleBits) / 8))
	m := (budget - headerSize) * 8 / c.MeasBits
	if m < 8 {
		return nil, fmt.Errorf("cs: cr %.3f leaves only %d measurements for n=%d (need ≥ 8, cr ≥ %.3f)",
			cr, m, c.N, c.MinCR(sampleBits))
	}
	if m > c.N {
		m = c.N
	}
	phi, err := NewSensingMatrix(m, c.N, c.D, c.Seed)
	if err != nil {
		return nil, err
	}
	y := phi.Apply(block)

	var scale float64
	for _, v := range y {
		if a := math.Abs(v); a > scale {
			scale = a
		}
	}
	if scale == 0 {
		scale = 1
	}
	qmax := float64(int(1)<<(c.MeasBits-1)) - 1

	payload := make([]byte, headerSize+(m*c.MeasBits+7)/8)
	binary.LittleEndian.PutUint16(payload[0:], uint16(c.N))
	binary.LittleEndian.PutUint16(payload[2:], uint16(m))
	binary.LittleEndian.PutUint32(payload[4:], math.Float32bits(float32(scale)))
	bw := bitpack.Writer{Buf: payload[headerSize:]}
	for _, v := range y {
		q := int(math.Round(v / scale * qmax))
		if q > int(qmax) {
			q = int(qmax)
		}
		if q < -int(qmax) {
			q = -int(qmax)
		}
		bw.Write(uint32(q&(1<<c.MeasBits-1)), c.MeasBits)
	}
	return &Block{Payload: payload, Measurements: m, N: c.N}, nil
}

// Decompress reconstructs a block from its payload by orthogonal matching
// pursuit in the codec's wavelet basis: at most m/3 atoms (at least one)
// beyond the pre-selected approximation band, stopping once the residual
// falls to ompTol of the measurements' norm.
func (c *Codec) Decompress(payload []byte) ([]float64, error) {
	if len(payload) < headerSize {
		return nil, fmt.Errorf("cs: payload too short (%d bytes)", len(payload))
	}
	n := int(binary.LittleEndian.Uint16(payload[0:]))
	m := int(binary.LittleEndian.Uint16(payload[2:]))
	scale := float64(math.Float32frombits(binary.LittleEndian.Uint32(payload[4:])))
	if n != c.N {
		return nil, fmt.Errorf("cs: payload block length %d, codec expects %d", n, c.N)
	}
	if m < 1 || m > n {
		return nil, fmt.Errorf("cs: payload measurement count %d out of range [1,%d]", m, n)
	}
	if want := headerSize + (m*c.MeasBits+7)/8; len(payload) != want {
		return nil, fmt.Errorf("cs: payload is %d bytes, want %d for m=%d", len(payload), want, m)
	}
	qmax := float64(int(1)<<(c.MeasBits-1)) - 1
	y := make([]float64, m)
	br := bitpack.Reader{Buf: payload[headerSize:]}
	for i := range y {
		raw, err := br.Read(c.MeasBits)
		if err != nil {
			return nil, err
		}
		y[i] = float64(bitpack.SignExtend(raw, c.MeasBits)) / qmax * scale
	}

	dict, err := c.dictionary(m)
	if err != nil {
		return nil, err
	}
	return dwt.Inverse(c.Wavelet, dict.omp(y, max(m/3, 1), ompTol), c.Levels)
}

// ompTol is OMP's relative-residual stop.
const ompTol = 1e-3
