package obs

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// maxPayload bounds one record's payload: comfortably above the largest
// legal record (a full MaxFields schema of maxFieldName-byte names is
// ~264 KiB) while keeping a corrupt length prefix from allocating
// gigabytes.
const maxPayload = 1 << 20

// ErrBadMagic reports a stream that does not open with Magic — the one
// malformation a Reader refuses outright instead of treating as a torn
// tail, because it means the file was never an obs stream at all.
var ErrBadMagic = errors.New("obs: stream does not start with the WSNOBS1 magic")

// Sample is one decoded sample: the schema in force when it was written
// plus the reconstructed absolute values. Fields is shared between
// samples under the same schema; Values is owned by the Sample.
type Sample struct {
	Fields []string
	Values []int64
}

// Reader decodes a stream record by record. The zero tolerance policy
// from the package doc: a malformed, truncated, or checksum-failing
// record ends the stream (Truncated reports it) rather than erroring,
// because the only writer is append-only and the only realistic
// corruption is a crash-torn tail.
type Reader struct {
	r         *countingReader
	schema    []string
	prev      []int64
	vals      []int64
	started   bool
	done      bool
	truncated bool
	intact    int64
	hdr       [1]byte
}

// countingReader counts the bytes the Reader has consumed, so record
// boundaries are known as byte offsets.
type countingReader struct {
	r *bufio.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func (c *countingReader) ReadByte() (byte, error) {
	b, err := c.r.ReadByte()
	if err == nil {
		c.n++
	}
	return b, err
}

// NewReader decodes the stream on r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: &countingReader{r: bufio.NewReader(r)}}
}

// Truncated reports whether the stream ended at a torn or corrupt
// record instead of a clean end-of-file. Meaningful once Next has
// returned false.
func (d *Reader) Truncated() bool { return d.truncated }

// Intact returns the byte length of the stream's intact prefix: the
// magic plus every record read so far that verified and applied. Once
// Next has returned false it is where a torn tail begins (0 when even
// the magic is torn), so an appender that truncates the stream there
// continues it with nothing unreadable in between.
func (d *Reader) Intact() int64 { return d.intact }

// Next decodes records until the next sample. It returns false at the
// end of the stream — clean or torn (see Truncated). The only error is
// ErrBadMagic on a stream that is not an obs stream.
func (d *Reader) Next() (Sample, bool, error) {
	if d.done {
		return Sample{}, false, nil
	}
	if !d.started {
		magic := make([]byte, len(Magic))
		if _, err := io.ReadFull(d.r, magic); err != nil {
			d.done = true
			if err == io.EOF {
				return Sample{}, false, nil // empty stream: zero samples, not an error
			}
			d.truncated = true
			return Sample{}, false, nil
		}
		if string(magic) != Magic {
			d.done = true
			return Sample{}, false, ErrBadMagic
		}
		d.started = true
		d.intact = d.r.n
	}
	for {
		payload, kind, ok := d.readRecord()
		if !ok {
			d.done = true
			return Sample{}, false, nil
		}
		switch kind {
		case kindSchema:
			if !d.applySchema(payload) {
				d.end()
				return Sample{}, false, nil
			}
			d.intact = d.r.n
		case kindSample:
			vals, ok := d.applySample(payload)
			if !ok {
				d.end()
				return Sample{}, false, nil
			}
			d.intact = d.r.n
			return Sample{Fields: d.schema, Values: vals}, true, nil
		default:
			// Unknown kind: this reader is older than the writer or the
			// record is garbage; either way nothing after it can be trusted.
			d.end()
			return Sample{}, false, nil
		}
	}
}

// end marks the stream torn.
func (d *Reader) end() {
	d.done = true
	d.truncated = true
}

// readRecord reads one framed record, verifying the checksum. ok=false
// means the stream ended here — cleanly (EOF exactly on a record
// boundary) or torn (anything else); d.truncated distinguishes them.
func (d *Reader) readRecord() (payload []byte, kind byte, ok bool) {
	if _, err := io.ReadFull(d.r, d.hdr[:]); err != nil {
		if err != io.EOF {
			d.truncated = true
		}
		return nil, 0, false
	}
	kind = d.hdr[0]
	n, err := binary.ReadUvarint(d.r)
	if err != nil || n > maxPayload {
		d.truncated = true
		return nil, 0, false
	}
	payload = make([]byte, n)
	if _, err := io.ReadFull(d.r, payload); err != nil {
		d.truncated = true
		return nil, 0, false
	}
	var crcBytes [4]byte
	if _, err := io.ReadFull(d.r, crcBytes[:]); err != nil {
		d.truncated = true
		return nil, 0, false
	}
	if binary.LittleEndian.Uint32(crcBytes[:]) != crc32.Checksum(payload, crcTable) {
		d.truncated = true
		return nil, 0, false
	}
	return payload, kind, true
}

// applySchema installs a schema record's field list and zeroes the delta
// base.
func (d *Reader) applySchema(payload []byte) bool {
	n, rest, ok := readUvarint(payload)
	if !ok || n == 0 || n > MaxFields {
		return false
	}
	fields := make([]string, 0, n)
	for i := uint64(0); i < n; i++ {
		var l uint64
		l, rest, ok = readUvarint(rest)
		if !ok || l == 0 || l > maxFieldName || uint64(len(rest)) < l {
			return false
		}
		fields = append(fields, string(rest[:l]))
		rest = rest[l:]
	}
	if len(rest) != 0 {
		return false
	}
	d.schema = fields
	d.prev = make([]int64, n)
	return true
}

// applySample reconstructs one sample's absolute values from its deltas.
func (d *Reader) applySample(payload []byte) ([]int64, bool) {
	if d.schema == nil {
		return nil, false // sample before any schema record
	}
	vals := make([]int64, len(d.schema))
	rest := payload
	for i := range vals {
		delta, n := binary.Varint(rest)
		if n <= 0 {
			return nil, false
		}
		rest = rest[n:]
		vals[i] = d.prev[i] + delta
	}
	if len(rest) != 0 {
		return nil, false
	}
	copy(d.prev, vals)
	return vals, true
}

// readUvarint decodes one uvarint off the front of b.
func readUvarint(b []byte) (v uint64, rest []byte, ok bool) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, false
	}
	return v, b[n:], true
}

// ReadAll decodes every intact sample in the stream. truncated reports
// a torn tail; the returned samples are everything before it. The only
// error is ErrBadMagic.
func ReadAll(r io.Reader) (samples []Sample, truncated bool, err error) {
	d := NewReader(r)
	for {
		s, ok, err := d.Next()
		if err != nil {
			return samples, d.Truncated(), err
		}
		if !ok {
			return samples, d.Truncated(), nil
		}
		samples = append(samples, s)
	}
}

// Tail returns the last n samples of the stream (all of them when it
// holds fewer), for recent-window endpoints that do not want to hold the
// whole series.
func Tail(r io.Reader, n int) (samples []Sample, truncated bool, err error) {
	if n <= 0 {
		return nil, false, fmt.Errorf("obs: tail window %d must be positive", n)
	}
	all, truncated, err := ReadAll(r)
	if err != nil {
		return nil, truncated, err
	}
	if len(all) > n {
		all = all[len(all)-n:]
	}
	return all, truncated, nil
}
