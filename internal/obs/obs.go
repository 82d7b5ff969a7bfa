// Package obs is the service's telemetry wire format: a compact,
// append-only binary time series in the style of MongoDB/Viam FTDC
// ("full-time diagnostic data capture"), written per job at search
// boundaries and decoded by GET /v1/jobs/{id}/stats, cmd/wsn-stats and
// offline tooling. The sampling cadence — what a boundary costs, how
// the rate limit bounds file growth, which columns the service writes —
// is the service layer's contract; see internal/service's package doc.
//
// # Format
//
// A stream is the 8-byte magic "WSNOBS1\n" followed by length-prefixed,
// checksummed records:
//
//	record  := kind(1 byte) | uvarint(len(payload)) | payload | crc32c(payload, 4 bytes LE)
//	kind 'S' := schema record: uvarint(nfields), then per field uvarint(len(name)) | name
//	kind 'D' := sample record: nfields zigzag-varint deltas, one per schema field
//
// Every sample is delta-encoded against the previous sample under the
// same schema (the first sample after a schema record deltas against
// zero), so a counter that grows slowly and a gauge that barely moves
// both cost one or two bytes per field instead of eight. A schema record
// resets the delta base; writers emit one whenever the field set
// changes (schema-diffing), so one stream can carry the plain-job and
// island-job field sets back to back.
//
// Values are int64 throughout — FTDC's trick: delta-of-integers
// compresses, delta-of-floats does not. Rates and hypervolumes ride as
// fixed-point integers (see the x1000/x1e6 field-name suffixes the
// service uses).
//
// # Torn tails
//
// The stream is append-only and crash-tolerant the same way the result
// store's index.jsonl is: a process killed mid-write leaves a truncated
// or checksum-failing final record, and the reader treats the first
// malformed record as end of stream — every intact sample before it
// decodes normally, and Reader.Truncated reports that a tail was
// dropped. Nothing before the tear is ever lost, because records hit the
// file in one Write each.
package obs

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

// Magic opens every stream. The trailing newline makes `head -c8` output
// readable and catches CRLF-mangling transports the same way PNG's magic
// does.
const Magic = "WSNOBS1\n"

// Record kinds.
const (
	kindSchema = 'S'
	kindSample = 'D'
)

// MaxFields bounds a schema record. Streams are handfuls of metrics, not
// column stores; the bound keeps a corrupt or hostile length prefix from
// turning into a multi-gigabyte allocation in the reader.
const MaxFields = 1024

// maxFieldName bounds one field name's length, for the same reason.
const maxFieldName = 256

// crcTable is the Castagnoli polynomial, hardware-accelerated on the
// platforms the service runs on.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Writer encodes samples onto an io.Writer. It is not safe for
// concurrent use; the service serializes samples per job. Steady-state
// writes (schema unchanged) allocate nothing: the record is built in a
// reused buffer and handed to the underlying writer in a single Write
// call, which is also what makes torn tails the only crash artifact.
type Writer struct {
	w       io.Writer
	schema  []string
	prev    []int64
	buf     []byte
	started bool
	samples int64
	bytes   int64
}

// NewWriter starts a stream on w. The magic is written lazily with the
// first record, so creating a Writer never touches the underlying file.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: w, buf: make([]byte, 0, 256)}
}

// NewAppendWriter continues a stream whose magic is already written, such
// as a file reopened for append. Its first record is a schema record,
// which resets the delta base just as a mid-stream schema change does.
func NewAppendWriter(w io.Writer) *Writer {
	return &Writer{w: w, buf: make([]byte, 0, 256), started: true}
}

// Samples returns how many sample records have been written.
func (w *Writer) Samples() int64 { return w.samples }

// Bytes returns how many bytes have been handed to the underlying
// writer, magic and schema records included.
func (w *Writer) Bytes() int64 { return w.bytes }

// WriteSample appends one sample. When names differs from the active
// schema (or no schema is active yet) a schema record precedes it and
// the delta base resets to zero. names and values must have equal
// length; the Writer keeps its own copies, so the caller may reuse both
// slices. Field names must be non-empty and at most maxFieldName bytes.
func (w *Writer) WriteSample(names []string, values []int64) error {
	if len(names) != len(values) {
		return fmt.Errorf("obs: %d names for %d values", len(names), len(values))
	}
	if len(names) == 0 || len(names) > MaxFields {
		return fmt.Errorf("obs: field count %d out of [1,%d]", len(names), MaxFields)
	}
	w.buf = w.buf[:0]
	if !w.started {
		w.buf = append(w.buf, Magic...)
		w.started = true
	}
	if !slices.Equal(w.schema, names) {
		for _, n := range names {
			if n == "" || len(n) > maxFieldName {
				return fmt.Errorf("obs: field name %q out of bounds (1..%d bytes)", n, maxFieldName)
			}
		}
		w.schema = append(w.schema[:0], names...)
		if cap(w.prev) < len(names) {
			w.prev = make([]int64, len(names))
		}
		w.prev = w.prev[:len(names)]
		clear(w.prev)
		w.buf = appendSchemaRecord(w.buf, names)
	}
	w.buf = appendSampleRecord(w.buf, w.prev, values)
	copy(w.prev, values)
	n, err := w.w.Write(w.buf)
	w.bytes += int64(n)
	if err != nil {
		return err
	}
	w.samples++
	return nil
}

// appendSchemaRecord encodes a schema record onto buf.
func appendSchemaRecord(buf []byte, names []string) []byte {
	payloadStart, buf := beginRecord(buf, kindSchema)
	buf = binary.AppendUvarint(buf, uint64(len(names)))
	for _, n := range names {
		buf = binary.AppendUvarint(buf, uint64(len(n)))
		buf = append(buf, n...)
	}
	return endRecord(buf, payloadStart)
}

// appendSampleRecord encodes values as zigzag deltas against prev.
func appendSampleRecord(buf []byte, prev, values []int64) []byte {
	payloadStart, buf := beginRecord(buf, kindSample)
	for i, v := range values {
		buf = binary.AppendVarint(buf, v-prev[i])
	}
	return endRecord(buf, payloadStart)
}

// lenPrefixSize is the fixed width reserved for the payload length. A
// 4-byte uvarint covers payloads up to 256 MiB — far past MaxFields ×
// 10-byte varints — and a fixed width lets the payload be encoded in
// place and the length patched afterward, keeping the whole record a
// single append-only pass over one buffer.
const lenPrefixSize = 4

// beginRecord appends the kind byte and reserves the length prefix,
// returning the payload start offset.
func beginRecord(buf []byte, kind byte) (int, []byte) {
	buf = append(buf, kind)
	buf = append(buf, 0, 0, 0, 0)
	return len(buf), buf
}

// endRecord patches the reserved length prefix and appends the payload
// CRC.
func endRecord(buf []byte, payloadStart int) []byte {
	payload := buf[payloadStart:]
	putUvarint4(buf[payloadStart-lenPrefixSize:payloadStart], uint64(len(payload)))
	crc := crc32.Checksum(payload, crcTable)
	return binary.LittleEndian.AppendUint32(buf, crc)
}

// putUvarint4 writes v as exactly four varint bytes (continuation bits
// on the first three), the fixed-width form beginRecord reserved.
func putUvarint4(b []byte, v uint64) {
	b[0] = byte(v&0x7f) | 0x80
	b[1] = byte((v>>7)&0x7f) | 0x80
	b[2] = byte((v>>14)&0x7f) | 0x80
	b[3] = byte((v >> 21) & 0x7f)
}
