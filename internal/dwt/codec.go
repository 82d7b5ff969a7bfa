package dwt

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"wsndse/internal/bitpack"
)

// Codec compresses fixed-size sample blocks by multi-level DWT followed by
// retention of the largest-magnitude coefficients (Benzid-style fixed
// percentage thresholding [23]). The encoded block is real bytes — header,
// significance bitmap, and 12-bit quantized coefficients — so the achieved
// compression ratio is measured on the wire.
type Codec struct {
	Wavelet   Wavelet
	Levels    int
	CoeffBits int // quantizer resolution for kept coefficients; 12 matches the ADC
}

// NewCodec returns a codec with the given wavelet and decomposition depth.
// CoeffBits defaults to 12.
func NewCodec(w Wavelet, levels int) *Codec {
	return &Codec{Wavelet: w, Levels: levels, CoeffBits: 12}
}

// Encoded block layout (all multi-byte fields little-endian):
//
//	offset size  field
//	0      2     n, block length in samples
//	2      1     levels
//	3      1     wavelet id
//	4      2     kept coefficient count K
//	6      4     quantizer scale (float32)
//	10     ⌈n/8⌉ significance bitmap (bit i set ⇔ coefficient i kept)
//	…      ⌈K·CoeffBits/8⌉ quantized kept coefficients in index order
const headerSize = 10

// Block is one compressed block together with bookkeeping used by the
// experiments.
type Block struct {
	Payload []byte // full encoded block, ready for packetization
	Kept    int    // number of retained coefficients
	N       int    // original sample count
}

// Size returns the encoded size in bytes — the φ_out contribution of this
// block.
func (b *Block) Size() int { return len(b.Payload) }

// MinCR returns the smallest compression ratio representable for a block
// of n samples with sampleBits-bit input samples: the encoding must carry
// at least the header, the bitmap and one coefficient.
func (c *Codec) MinCR(n int, sampleBits int) float64 {
	inBytes := float64(n) * float64(sampleBits) / 8
	minBytes := float64(headerSize) + math.Ceil(float64(n)/8) + math.Ceil(float64(c.CoeffBits)/8)
	return minBytes / inBytes
}

// Compress encodes a block targeting compression ratio cr = output bytes /
// input bytes, with input accounted at sampleBits per sample (12 for the
// case-study ADC). The budget is met from below: the encoded size never
// exceeds cr·n·sampleBits/8 bytes.
func (c *Codec) Compress(block []float64, cr float64, sampleBits int) (*Block, error) {
	n := len(block)
	if c.CoeffBits < 2 || c.CoeffBits > 16 {
		return nil, fmt.Errorf("dwt: CoeffBits %d out of range [2,16]", c.CoeffBits)
	}
	if !(cr > 0 && cr <= 1) { // NaN fails too
		return nil, fmt.Errorf("dwt: compression ratio %g out of range (0,1]", cr)
	}
	if sampleBits < 1 {
		return nil, fmt.Errorf("dwt: sampleBits %d must be positive", sampleBits)
	}
	if n > math.MaxUint16 {
		return nil, fmt.Errorf("dwt: block length %d exceeds encoding limit %d", n, math.MaxUint16)
	}
	coeffs, err := Forward(c.Wavelet, block, c.Levels)
	if err != nil {
		return nil, err
	}

	bitmapBytes := (n + 7) / 8
	budget := int(math.Floor(cr * float64(n) * float64(sampleBits) / 8))
	avail := budget - headerSize - bitmapBytes
	k := avail * 8 / c.CoeffBits
	if k < 1 {
		return nil, fmt.Errorf("dwt: cr %.3f leaves no coefficient budget for n=%d (need ≥ %.3f)",
			cr, n, c.MinCR(n, sampleBits))
	}
	if k > n {
		k = n
	}

	// Pick the k largest-magnitude coefficients.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		return math.Abs(coeffs[idx[a]]) > math.Abs(coeffs[idx[b]])
	})
	keep := idx[:k]
	sort.Ints(keep)

	// Symmetric uniform quantizer over the kept coefficients.
	var scale float64
	for _, i := range keep {
		if v := math.Abs(coeffs[i]); v > scale {
			scale = v
		}
	}
	if scale == 0 {
		scale = 1 // all-zero block; quantized values are all zero anyway
	}
	qmax := float64(int(1)<<(c.CoeffBits-1)) - 1

	payload := make([]byte, headerSize+bitmapBytes+(k*c.CoeffBits+7)/8)
	binary.LittleEndian.PutUint16(payload[0:], uint16(n))
	payload[2] = byte(c.Levels)
	payload[3] = c.Wavelet.id()
	binary.LittleEndian.PutUint16(payload[4:], uint16(k))
	binary.LittleEndian.PutUint32(payload[6:], math.Float32bits(float32(scale)))
	bitmap := payload[headerSize : headerSize+bitmapBytes]
	for _, i := range keep {
		bitmap[i/8] |= 1 << (i % 8)
	}
	bw := bitpack.Writer{Buf: payload[headerSize+bitmapBytes:]}
	for _, i := range keep {
		q := int(math.Round(coeffs[i] / scale * qmax))
		if q > int(qmax) {
			q = int(qmax)
		}
		if q < -int(qmax) {
			q = -int(qmax)
		}
		bw.Write(uint32(q&(1<<c.CoeffBits-1)), c.CoeffBits)
	}
	return &Block{Payload: payload, Kept: k, N: n}, nil
}

// Decompress decodes a payload produced by Compress and reconstructs the
// signal by inverse DWT with the discarded coefficients at zero.
func Decompress(payload []byte) ([]float64, error) {
	if len(payload) < headerSize {
		return nil, fmt.Errorf("dwt: payload too short (%d bytes)", len(payload))
	}
	n := int(binary.LittleEndian.Uint16(payload[0:]))
	levels := int(payload[2])
	w, err := waveletByID(payload[3])
	if err != nil {
		return nil, err
	}
	k := int(binary.LittleEndian.Uint16(payload[4:]))
	scale := float64(math.Float32frombits(binary.LittleEndian.Uint32(payload[6:])))
	bitmapBytes := (n + 7) / 8
	coeffBits, err := inferCoeffBits(len(payload), n, k, bitmapBytes)
	if err != nil {
		return nil, err
	}
	qmax := float64(int(1)<<(coeffBits-1)) - 1

	coeffs := make([]float64, n)
	bitmap := payload[headerSize : headerSize+bitmapBytes]
	br := bitpack.Reader{Buf: payload[headerSize+bitmapBytes:]}
	found := 0
	for i := 0; i < n; i++ {
		if bitmap[i/8]&(1<<(i%8)) == 0 {
			continue
		}
		raw, err := br.Read(coeffBits)
		if err != nil {
			return nil, err
		}
		coeffs[i] = float64(bitpack.SignExtend(raw, coeffBits)) / qmax * scale
		found++
	}
	if found != k {
		return nil, fmt.Errorf("dwt: bitmap population %d disagrees with header count %d", found, k)
	}
	return Inverse(w, coeffs, levels)
}

// inferCoeffBits recovers the quantizer width from the payload size. The
// encoding does not store it explicitly (the paper's firmware fixes it at
// compile time); the decoder accepts any width whose packed size matches.
func inferCoeffBits(total, n, k, bitmapBytes int) (int, error) {
	data := total - headerSize - bitmapBytes
	if data < 0 {
		return 0, fmt.Errorf("dwt: truncated payload (%d bytes for n=%d)", total, n)
	}
	if k == 0 {
		return 12, nil
	}
	for bits := 2; bits <= 16; bits++ {
		if (k*bits+7)/8 == data {
			return bits, nil
		}
	}
	return 0, fmt.Errorf("dwt: cannot infer coefficient width from %d data bytes for %d coefficients", data, k)
}
