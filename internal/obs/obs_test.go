package obs

import (
	"bytes"
	"io"
	"math/rand"
	"testing"
)

func writeStream(t testing.TB, samples []Sample) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, s := range samples {
		if err := w.WriteSample(s.Fields, s.Values); err != nil {
			t.Fatalf("WriteSample: %v", err)
		}
	}
	return buf.Bytes()
}

func sameSamples(t *testing.T, want, got []Sample) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("decoded %d samples, want %d", len(got), len(want))
	}
	for i := range want {
		if len(got[i].Fields) != len(want[i].Fields) {
			t.Fatalf("sample %d: %d fields, want %d", i, len(got[i].Fields), len(want[i].Fields))
		}
		for j := range want[i].Fields {
			if got[i].Fields[j] != want[i].Fields[j] {
				t.Fatalf("sample %d field %d: %q, want %q", i, j, got[i].Fields[j], want[i].Fields[j])
			}
			if got[i].Values[j] != want[i].Values[j] {
				t.Fatalf("sample %d %s: %d, want %d", i, want[i].Fields[j], got[i].Values[j], want[i].Values[j])
			}
		}
	}
}

func TestRoundTripBasic(t *testing.T) {
	fields := []string{"ts_ms", "step", "evaluated", "hv_x1e6"}
	in := []Sample{
		{Fields: fields, Values: []int64{1700000000000, 1, 128, 42}},
		{Fields: fields, Values: []int64{1700000000250, 2, 256, 77}},
		{Fields: fields, Values: []int64{1700000000500, 3, 257, 77}},
	}
	data := writeStream(t, in)
	got, truncated, err := ReadAll(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if truncated {
		t.Fatal("clean stream reported truncated")
	}
	sameSamples(t, in, got)
}

// Round-trip property: random schemas and random (including negative and
// extreme) values survive encode→decode exactly, across many stream
// shapes.
func TestRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	extremes := []int64{0, 1, -1, 1 << 40, -(1 << 40), 1<<63 - 1, -1 << 63}
	for trial := 0; trial < 200; trial++ {
		nfields := 1 + rng.Intn(20)
		fields := make([]string, nfields)
		for i := range fields {
			fields[i] = string(rune('a'+i%26)) + string(rune('0'+i/26))
		}
		nsamples := 1 + rng.Intn(30)
		in := make([]Sample, nsamples)
		for i := range in {
			vals := make([]int64, nfields)
			for j := range vals {
				switch rng.Intn(3) {
				case 0:
					vals[j] = extremes[rng.Intn(len(extremes))]
				case 1:
					vals[j] = rng.Int63n(1000) // small, delta-friendly
				default:
					vals[j] = rng.Int63() - rng.Int63()
				}
			}
			in[i] = Sample{Fields: fields, Values: vals}
		}
		data := writeStream(t, in)
		got, truncated, err := ReadAll(bytes.NewReader(data))
		if err != nil || truncated {
			t.Fatalf("trial %d: err=%v truncated=%v", trial, err, truncated)
		}
		sameSamples(t, in, got)
	}
}

// A schema change mid-stream emits a new schema record; samples on both
// sides decode with their own field sets and fresh delta bases.
func TestSchemaChangeMidStream(t *testing.T) {
	a := []string{"step", "evaluated"}
	b := []string{"step", "evaluated", "island", "round"}
	in := []Sample{
		{Fields: a, Values: []int64{1, 100}},
		{Fields: a, Values: []int64{2, 200}},
		{Fields: b, Values: []int64{3, 300, 0, 1}},
		{Fields: b, Values: []int64{4, 400, 1, 1}},
		{Fields: a, Values: []int64{5, 500}},
	}
	data := writeStream(t, in)
	got, truncated, err := ReadAll(bytes.NewReader(data))
	if err != nil || truncated {
		t.Fatalf("err=%v truncated=%v", err, truncated)
	}
	sameSamples(t, in, got)
}

// Torn-tail recovery: truncating a stream at every possible byte length
// must never error, never yield a wrong sample, and only ever drop
// samples from the tail.
func TestTornTailTruncation(t *testing.T) {
	fields := []string{"ts", "step", "evals"}
	in := make([]Sample, 20)
	for i := range in {
		in[i] = Sample{Fields: fields, Values: []int64{int64(1000 + i*17), int64(i), int64(i * i)}}
	}
	data := writeStream(t, in)
	fullLen := len(data)
	for cut := 0; cut <= fullLen; cut++ {
		got, truncated, err := ReadAll(bytes.NewReader(data[:cut]))
		if err != nil {
			// Only a cut inside the magic itself may produce ErrBadMagic:
			// the prefix is present but wrong-length reads never are; a cut
			// below len(Magic) yields a clean/truncated empty stream instead.
			t.Fatalf("cut %d: %v", cut, err)
		}
		if len(got) > len(in) {
			t.Fatalf("cut %d: decoded %d samples from a %d-sample stream", cut, len(got), len(in))
		}
		sameSamples(t, in[:len(got)], got)
		if cut == fullLen && (truncated || len(got) != len(in)) {
			t.Fatalf("uncut stream: %d samples, truncated=%v", len(got), truncated)
		}
	}
}

// TestIntactPrefix: at every cut of a stream, Intact is the length of a
// prefix holding exactly the samples the reader decoded and no torn
// record, so an appender that truncates the stream there and continues
// it leaves every sample readable.
func TestIntactPrefix(t *testing.T) {
	var in []Sample
	for i := range 8 {
		fields := []string{"step", "evals"}
		if i >= 4 {
			fields = []string{"step", "evals", "island"}
		}
		vals := make([]int64, len(fields))
		for j := range vals {
			vals[j] = int64(i*31 + j)
		}
		in = append(in, Sample{Fields: fields, Values: vals})
	}
	data := writeStream(t, in)
	more := Sample{Fields: []string{"step"}, Values: []int64{99}}
	for cut := 0; cut <= len(data); cut++ {
		d := NewReader(bytes.NewReader(data[:cut]))
		n := 0
		for {
			_, ok, err := d.Next()
			if err != nil {
				t.Fatalf("cut %d: %v", cut, err)
			}
			if !ok {
				break
			}
			n++
		}
		intact := d.Intact()
		if intact > int64(cut) || (cut == len(data) && intact != int64(cut)) {
			t.Fatalf("cut %d: intact prefix %d bytes", cut, intact)
		}
		buf := bytes.NewBuffer(append([]byte(nil), data[:intact]...))
		w := NewWriter(buf)
		if intact > 0 {
			w = NewAppendWriter(buf)
		}
		if err := w.WriteSample(more.Fields, more.Values); err != nil {
			t.Fatal(err)
		}
		got, truncated, err := ReadAll(buf)
		if err != nil || truncated {
			t.Fatalf("cut %d: continued stream truncated=%v, err=%v", cut, truncated, err)
		}
		sameSamples(t, append(in[:n:n], more), got)
	}
}

// Flipping any single payload byte must surface as a torn tail, never as
// silently wrong values.
func TestCorruptRecordDetected(t *testing.T) {
	fields := []string{"a", "b"}
	in := []Sample{
		{Fields: fields, Values: []int64{10, 20}},
		{Fields: fields, Values: []int64{11, 21}},
		{Fields: fields, Values: []int64{12, 22}},
	}
	data := writeStream(t, in)
	for off := len(Magic); off < len(data); off++ {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0x40
		got, _, err := ReadAll(bytes.NewReader(mut))
		if err != nil {
			continue // corrupted magic region impossible here; any error is fine
		}
		// Every decoded sample must match the prefix of the original: the
		// checksum guarantees a corrupted record never decodes.
		for i, s := range got {
			if i >= len(in) {
				t.Fatalf("offset %d: phantom sample %d", off, i)
			}
			for j := range s.Values {
				if j < len(in[i].Values) && s.Values[j] != in[i].Values[j] {
					t.Fatalf("offset %d: sample %d field %d decoded %d, want %d",
						off, i, j, s.Values[j], in[i].Values[j])
				}
			}
		}
	}
}

func TestBadMagic(t *testing.T) {
	if _, _, err := ReadAll(bytes.NewReader([]byte("NOTOBS00rest"))); err != ErrBadMagic {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
	// Empty stream: zero samples, no error, not truncated.
	got, truncated, err := ReadAll(bytes.NewReader(nil))
	if err != nil || truncated || len(got) != 0 {
		t.Fatalf("empty stream: %d samples, truncated=%v, err=%v", len(got), truncated, err)
	}
}

func TestWriteSampleValidation(t *testing.T) {
	w := NewWriter(io.Discard)
	if err := w.WriteSample([]string{"a"}, []int64{1, 2}); err == nil {
		t.Fatal("mismatched lengths accepted")
	}
	if err := w.WriteSample(nil, nil); err == nil {
		t.Fatal("empty schema accepted")
	}
	if err := w.WriteSample([]string{""}, []int64{1}); err == nil {
		t.Fatal("empty field name accepted")
	}
}

func TestTail(t *testing.T) {
	fields := []string{"x"}
	in := make([]Sample, 10)
	for i := range in {
		in[i] = Sample{Fields: fields, Values: []int64{int64(i)}}
	}
	data := writeStream(t, in)
	got, _, err := Tail(bytes.NewReader(data), 3)
	if err != nil {
		t.Fatal(err)
	}
	sameSamples(t, in[7:], got)
	if _, _, err := Tail(bytes.NewReader(data), 0); err == nil {
		t.Fatal("Tail(0) accepted")
	}
}

// The steady-state write path (schema unchanged) must not allocate: it
// runs at search boundaries inside the service's job loop, and the <2%
// throughput budget is met by keeping the sample cost at one buffered
// encode + one Write.
func TestObsWriterZeroAllocs(t *testing.T) {
	fields := []string{"ts_ms", "step", "evaluated", "infeasible", "front", "hv_x1e6", "hits", "lookups"}
	vals := make([]int64, len(fields))
	w := NewWriter(io.Discard)
	if err := w.WriteSample(fields, vals); err != nil { // schema record + warm-up
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		for i := range vals {
			vals[i] += int64(i)
		}
		if err := w.WriteSample(fields, vals); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state WriteSample allocates %v times per call, want 0", allocs)
	}
}
