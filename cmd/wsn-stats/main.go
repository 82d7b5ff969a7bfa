// Command wsn-stats decodes the binary telemetry streams the service
// writes under -obs-dir (one <jobID>.obs per job, internal/obs format)
// into human- and tool-friendly forms for offline analysis.
//
//	wsn-stats job7.obs                     # aligned table of every sample
//	wsn-stats -n 20 job7.obs               # last 20 samples
//	wsn-stats -format csv job7.obs         # spreadsheet-ready
//	wsn-stats -format json job7.obs | jq   # one object per sample
//	wsn-stats -follow job7.obs             # tail a live job's stream
//
// A torn tail — the expected end of a stream whose writer crashed — is
// reported on stderr and does not fail the decode; everything before
// the tear is intact by construction (each record is CRC-framed). Only
// a file that was never an obs stream at all exits non-zero.
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"wsndse/internal/obs"
)

func main() {
	var (
		format = flag.String("format", "table", "output format: table, csv, or json")
		n      = flag.Int("n", 0, "print only the last N samples (0 prints all)")
		follow = flag.Bool("follow", false, "keep watching the file and print samples as the job appends them")
		poll   = flag.Duration("poll", time.Second, "poll interval in -follow mode")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: wsn-stats [flags] <file.obs>")
		flag.PrintDefaults()
		os.Exit(2)
	}
	path := flag.Arg(0)

	var emit emitter
	switch *format {
	case "table":
		emit = &tableEmitter{out: os.Stdout}
	case "csv":
		emit = &csvEmitter{w: csv.NewWriter(os.Stdout)}
	case "json":
		emit = &jsonEmitter{out: os.Stdout}
	default:
		fail(fmt.Errorf("unknown -format %q (want table, csv, or json)", *format))
	}

	samples, truncated, err := decode(path)
	if err != nil {
		fail(err)
	}
	if *n > 0 && len(samples) > *n && !*follow {
		samples = samples[len(samples)-*n:]
	}
	for _, s := range samples {
		emit.sample(s)
	}
	emit.flush()
	if truncated {
		fmt.Fprintf(os.Stderr, "wsn-stats: %s: torn tail after %d intact samples (writer crashed mid-record?)\n", path, len(samples))
	}
	if !*follow {
		return
	}

	// Follow mode re-decodes the file each poll and prints what is new.
	// Telemetry files are small (a few bytes per sample after delta
	// coding), so the re-decode costs less than getting incremental
	// decoding right across schema changes and torn-then-repaired tails.
	seen := len(samples)
	for {
		time.Sleep(*poll)
		samples, _, err := decode(path)
		if err != nil {
			fail(err)
		}
		if len(samples) < seen {
			seen = 0 // file replaced or rewritten: start over
		}
		for _, s := range samples[seen:] {
			emit.sample(s)
		}
		seen = len(samples)
		emit.flush()
	}
}

func decode(path string) ([]obs.Sample, bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, false, err
	}
	defer f.Close()
	return obs.ReadAll(f)
}

// An emitter renders decoded samples in one output format, reprinting
// its header whenever the stream's schema changes mid-file.
type emitter interface {
	sample(s obs.Sample)
	flush()
}

// tableEmitter prints fixed-width columns sized to the field names —
// telemetry values (timestamps, counters) fit the same widths in
// practice, and alignment beats perfection for eyeballing a stream.
type tableEmitter struct {
	out    *os.File
	fields []string
	widths []int
}

func (t *tableEmitter) sample(s obs.Sample) {
	if !slices.Equal(t.fields, s.Fields) {
		t.fields = s.Fields
		t.widths = make([]int, len(s.Fields))
		var b strings.Builder
		for i, f := range s.Fields {
			t.widths[i] = len(f)
			if t.widths[i] < 13 {
				t.widths[i] = 13
			}
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%*s", t.widths[i], f)
		}
		fmt.Fprintln(t.out, b.String())
	}
	var b strings.Builder
	for i, v := range s.Values {
		if i > 0 {
			b.WriteString("  ")
		}
		fmt.Fprintf(&b, "%*d", t.widths[i], v)
	}
	fmt.Fprintln(t.out, b.String())
}

func (t *tableEmitter) flush() {}

type csvEmitter struct {
	w      *csv.Writer
	fields []string
	row    []string
}

func (c *csvEmitter) sample(s obs.Sample) {
	if !slices.Equal(c.fields, s.Fields) {
		c.fields = s.Fields
		_ = c.w.Write(s.Fields)
		c.row = make([]string, len(s.Fields))
	}
	for i, v := range s.Values {
		c.row[i] = strconv.FormatInt(v, 10)
	}
	_ = c.w.Write(c.row)
}

func (c *csvEmitter) flush() { c.w.Flush() }

// jsonEmitter prints one object per line ({"field": value, ...}, field
// order preserved), the shape jq and log pipelines expect.
type jsonEmitter struct {
	out *os.File
}

func (j *jsonEmitter) sample(s obs.Sample) {
	var b strings.Builder
	b.WriteByte('{')
	for i, f := range s.Fields {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Quote(f))
		b.WriteByte(':')
		b.WriteString(strconv.FormatInt(s.Values[i], 10))
	}
	b.WriteByte('}')
	fmt.Fprintln(j.out, b.String())
}

func (j *jsonEmitter) flush() {}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "wsn-stats:", err)
	os.Exit(1)
}
