package obs

import (
	"bytes"
	"testing"
)

// FuzzObsDecode throws arbitrary bytes at the reader. The decoder must
// never panic, never loop, and — when the input happens to decode — the
// decoded samples must re-encode into a stream that decodes to the same
// values (decode∘encode∘decode is the identity on whatever survived).
// The reader's intact prefix must hold exactly those samples and no torn
// record, since that prefix is what an appender keeps.
func FuzzObsDecode(f *testing.F) {
	// Seed with a healthy stream, a schema change, and a torn tail.
	fields := []string{"ts", "step", "evals"}
	var healthy bytes.Buffer
	w := NewWriter(&healthy)
	_ = w.WriteSample(fields, []int64{1000, 1, 64})
	_ = w.WriteSample(fields, []int64{1250, 2, 128})
	_ = w.WriteSample([]string{"ts", "round"}, []int64{1500, 1})
	f.Add(healthy.Bytes())
	f.Add(healthy.Bytes()[:len(healthy.Bytes())-3])
	f.Add([]byte(Magic))
	f.Add([]byte("garbage that is not a stream"))

	f.Fuzz(func(t *testing.T, data []byte) {
		samples, _, err := ReadAll(bytes.NewReader(data))
		if err != nil {
			if err != ErrBadMagic {
				t.Fatalf("unexpected error: %v", err)
			}
			return
		}
		d := NewReader(bytes.NewReader(data))
		for {
			if _, ok, _ := d.Next(); !ok {
				break
			}
		}
		kept, truncated, err := ReadAll(bytes.NewReader(data[:d.Intact()]))
		if err != nil || truncated || len(kept) != len(samples) {
			t.Fatalf("intact prefix of %d bytes: %d/%d samples, truncated=%v, err=%v",
				d.Intact(), len(kept), len(samples), truncated, err)
		}
		// Re-encode what decoded and decode again: the values must agree.
		var buf bytes.Buffer
		w := NewWriter(&buf)
		for _, s := range samples {
			if err := w.WriteSample(s.Fields, s.Values); err != nil {
				t.Fatalf("re-encoding decoded sample: %v", err)
			}
		}
		again, truncated, err := ReadAll(bytes.NewReader(buf.Bytes()))
		if err != nil || truncated {
			t.Fatalf("re-decode: err=%v truncated=%v", err, truncated)
		}
		if len(again) != len(samples) {
			t.Fatalf("re-decode kept %d/%d samples", len(again), len(samples))
		}
		for i := range samples {
			for j := range samples[i].Values {
				if samples[i].Values[j] != again[i].Values[j] ||
					samples[i].Fields[j] != again[i].Fields[j] {
					t.Fatalf("sample %d field %d drifted through re-encode", i, j)
				}
			}
		}
	})
}
