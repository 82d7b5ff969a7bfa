package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"wsndse/internal/scenario"
)

// storeRes builds a minimal distinct result for store tests.
func storeRes(scenarioName, algo, fp string) StoredResult {
	return StoredResult{
		Scenario:    scenarioName,
		Algorithm:   algo,
		Fingerprint: fp,
		Objectives:  ObjectivesFull,
		Front:       []FrontPoint{{Config: []int{1, 2}, Objs: []float64{1, 2, 3}}},
	}
}

// TestStoreEvictionBoundaries pins the LRU policy at its edges: a store
// bounded at 2 holds exactly 2, eviction order follows recency (Get
// refreshes it), and the key index never dangles after eviction.
func TestStoreEvictionBoundaries(t *testing.T) {
	s, err := NewStore(StoreConfig{MaxResults: 2})
	if err != nil {
		t.Fatal(err)
	}
	v1 := mustPut(t, s, storeRes("a", "nsga2", "fpA"))
	v2 := mustPut(t, s, storeRes("b", "nsga2", "fpB"))
	if s.Len() != 2 {
		t.Fatalf("Len() = %d, want 2", s.Len())
	}
	// Touch v1 so v2 becomes the LRU victim of the next Put.
	if _, ok := s.Get(v1); !ok {
		t.Fatal("v1 missing before eviction")
	}
	v3 := mustPut(t, s, storeRes("c", "nsga2", "fpC"))
	if s.Len() != 2 {
		t.Fatalf("Len() = %d after third put, want 2", s.Len())
	}
	if _, ok := s.Get(v2); ok {
		t.Fatal("v2 survived despite being least recently used")
	}
	for _, v := range []int{v1, v3} {
		if _, ok := s.Get(v); !ok {
			t.Fatalf("v%d evicted, want retained", v)
		}
	}
	// The evicted version's key index entry is gone with it.
	if _, total := s.Query(ResultQuery{Key: ResultKey("fpB", ObjectivesFull, "nsga2")}); total != 0 {
		t.Fatal("key index still resolves the evicted result")
	}
	// An evicted version number is never reused.
	v4 := mustPut(t, s, storeRes("d", "nsga2", "fpD"))
	if v4 != v3+1 {
		t.Fatalf("version after eviction %d, want %d", v4, v3+1)
	}

	// Boundary: a bound of 1 holds exactly the newest put.
	one, err := NewStore(StoreConfig{MaxResults: 1})
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, one, storeRes("a", "nsga2", "fpA"))
	last := mustPut(t, one, storeRes("b", "nsga2", "fpB"))
	if one.Len() != 1 {
		t.Fatalf("bound-1 store holds %d", one.Len())
	}
	if _, ok := one.Get(last); !ok {
		t.Fatal("bound-1 store lost the newest result")
	}
}

// TestStoreConcurrentPutQuery hammers Put, Get and Query (by key and by
// fingerprint) from many goroutines (run under -race) and then checks
// the version/key indexes agree with each other.
func TestStoreConcurrentPutQuery(t *testing.T) {
	s, err := NewStore(StoreConfig{MaxResults: 64})
	if err != nil {
		t.Fatal(err)
	}
	const writers, reads = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < reads; i++ {
				fp := fmt.Sprintf("fp%d", (w*reads+i)%16)
				if _, err := s.Put(storeRes("s", "nsga2", fp)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < reads; i++ {
				s.Get(i + 1)
				s.Query(ResultQuery{Key: ResultKey(fmt.Sprintf("fp%d", i%16), ObjectivesFull, "nsga2"), Limit: 1})
				s.Query(ResultQuery{Fingerprint: fmt.Sprintf("fp%d", i%16), Limit: 4})
			}
		}()
	}
	wg.Wait()
	if s.Len() != 64 {
		t.Fatalf("Len() = %d, want the 64 bound", s.Len())
	}
	// Index consistency: every result the full query surfaces must be
	// reachable through its own content key, and per-key totals must sum
	// to the retained count.
	all, total := s.Query(ResultQuery{})
	if total != 64 || len(all) != 64 {
		t.Fatalf("full query %d/%d, want 64/64", len(all), total)
	}
	perKey := map[string]int{}
	for _, r := range all {
		perKey[r.Key]++
		hit, _ := s.Query(ResultQuery{Key: r.Key, Limit: 1})
		if len(hit) == 0 {
			t.Fatalf("version %d unreachable through key %s", r.Version, r.Key)
		}
		if hit[0].Key != r.Key {
			t.Fatalf("key index returned %s for %s", hit[0].Key, r.Key)
		}
	}
	sum := 0
	for key, n := range perKey {
		_, keyTotal := s.Query(ResultQuery{Key: key})
		if keyTotal != n {
			t.Fatalf("key %s: query total %d, full scan saw %d", key, keyTotal, n)
		}
		sum += keyTotal
	}
	if sum != 64 {
		t.Fatalf("per-key totals sum to %d, want 64", sum)
	}
}

// TestStorePersistenceRoundTrip kills and recreates the Store on the
// same directory: surviving results, the continuing version counter, and
// evictions must all round-trip through the result files.
func TestStorePersistenceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(StoreConfig{Dir: dir, MaxResults: 8})
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, s, storeRes("a", "nsga2", "fpA"))
	v2 := mustPut(t, s, storeRes("b", "mosa", "fpB"))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := NewStore(StoreConfig{Dir: dir, MaxResults: 8})
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 2 {
		t.Fatalf("reopened store holds %d results, want 2", s2.Len())
	}
	r, ok := s2.Get(v2)
	if !ok || r.Scenario != "b" || r.Algorithm != "mosa" || len(r.Front) != 1 {
		t.Fatalf("reopened v2 = %+v, %v", r, ok)
	}
	if r.Key != ResultKey("fpB", ObjectivesFull, "mosa") {
		t.Fatalf("reopened key %q", r.Key)
	}
	// The version counter continues where the dead process stopped.
	v3 := mustPut(t, s2, storeRes("c", "nsga2", "fpC"))
	if v3 != v2+1 {
		t.Fatalf("post-restart version %d, want %d", v3, v2+1)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen with a tighter bound: the store trims to it immediately and
	// the trim survives yet another restart.
	s3, err := NewStore(StoreConfig{Dir: dir, MaxResults: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s3.Len() != 1 {
		t.Fatalf("tight reopen holds %d, want 1", s3.Len())
	}
	if _, ok := s3.Get(v3); !ok {
		t.Fatal("tight reopen kept a stale result instead of the newest")
	}
	s3.Close()
	s4, err := NewStore(StoreConfig{Dir: dir, MaxResults: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s4.Close()
	if s4.Len() != 1 {
		t.Fatalf("store after trimmed restart holds %d, want 1", s4.Len())
	}

	// Crash tolerance: a put the crash tore mid-write (half a result in
	// v2.json.tmp) must not prevent reopening, everything before it
	// survives, and the next put takes the torn put's version.
	tornDir := t.TempDir()
	s5, err := NewStore(StoreConfig{Dir: tornDir, MaxResults: 8})
	if err != nil {
		t.Fatal(err)
	}
	v1 := mustPut(t, s5, storeRes("a", "nsga2", "fpA"))
	s5.Close()
	if err := os.WriteFile(filepath.Join(tornDir, "v2.json.tmp"), []byte(`{"version":2,"ke`), 0o644); err != nil {
		t.Fatal(err)
	}
	s6, err := NewStore(StoreConfig{Dir: tornDir, MaxResults: 8})
	if err != nil {
		t.Fatalf("torn temporary file broke reopen: %v", err)
	}
	defer s6.Close()
	if s6.Len() != 1 {
		t.Fatalf("store after torn put holds %d, want 1", s6.Len())
	}
	if v := mustPut(t, s6, storeRes("b", "nsga2", "fpB")); v != v1+1 {
		t.Fatalf("put after the torn one got version %d, want %d", v, v1+1)
	}
}

// TestStoreCrashLeftovers: files a crash or a hand leaves in the result
// directory that are not canonical result names (a torn temporary file,
// a zero-padded or zero version, an index from an older store) are
// never served and never break a reopen, and versions continue after
// the largest result file across two restarts.
func TestStoreCrashLeftovers(t *testing.T) {
	dir := t.TempDir()
	open := func() *Store {
		t.Helper()
		s, err := NewStore(StoreConfig{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s := open()
	for _, name := range []string{"a", "b", "c"} {
		mustPut(t, s, storeRes(name, "nsga2", "fp"+name))
	}
	s.Close()
	stray, err := json.Marshal(storeRes("stray", "nsga2", "fpstray"))
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"v4.json.tmp": stray[:len(stray)/2],
		"v04.json":    stray,
		"v0.json":     stray,
		"index.jsonl": []byte(`{"op":"put","version":9,"key":"k"}` + "\n" + `{"op":"evict","version":1}` + "\n"),
	} {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	want := []string{"a", "b", "c"}
	for restart := 1; restart <= 2; restart++ {
		s = open()
		page, total := s.Query(ResultQuery{})
		if total != len(want) {
			t.Fatalf("restart %d serves %d results, want %d", restart, total, len(want))
		}
		for i, r := range page {
			v := len(want) - i // newest first
			if r.Version != v || r.Scenario != want[v-1] {
				t.Fatalf("restart %d: result %d is v%d %q, want v%d %q", restart, i, r.Version, r.Scenario, v, want[v-1])
			}
		}
		name := fmt.Sprintf("after-restart-%d", restart)
		if v := mustPut(t, s, storeRes(name, "nsga2", "fp"+name)); v != len(want)+1 {
			t.Fatalf("restart %d: next version %d, want %d", restart, v, len(want)+1)
		}
		want = append(want, name)
		s.Close()
	}
}

// TestStoreOpensIndexedDir opens a result directory laid out as a store
// that also kept an index.jsonl of its puts and evictions leaves it:
// puts of versions 1–3 and an evict of 1 in the index, and the files
// v2.json and v3.json. The store serves versions 2 and 3 with their
// fronts, numbers the next result 4, and leaves the index as it was.
func TestStoreOpensIndexedDir(t *testing.T) {
	dir := t.TempDir()
	results := map[int]StoredResult{}
	var index []byte
	for v := 1; v <= 3; v++ {
		r := storeRes(fmt.Sprintf("s%d", v), "nsga2", fmt.Sprintf("fp%d", v))
		r.Version = v
		r.Key = ResultKey(r.Fingerprint, r.Objectives, r.Algorithm)
		r.Front = []FrontPoint{{Config: []int{v, 2 * v}, Objs: []float64{float64(v) / 3, 0.5, 1e-3 * float64(v)}}}
		index = fmt.Appendf(index, `{"op":"put","version":%d,"key":%q}`+"\n", v, r.Key)
		if v == 1 {
			continue // evicted below: its file is gone
		}
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("v%d.json", v)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		results[v] = r
	}
	index = append(index, `{"op":"evict","version":1}`+"\n"...)
	indexPath := filepath.Join(dir, "index.jsonl")
	if err := os.WriteFile(indexPath, index, 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := NewStore(StoreConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Len() != 2 {
		t.Fatalf("store holds %d results, want 2", s.Len())
	}
	if _, ok := s.Get(1); ok {
		t.Fatal("the evicted v1 is served")
	}
	for v, want := range results {
		got, ok := s.Get(v)
		if !ok {
			t.Fatalf("v%d missing", v)
		}
		got.CompletedAt, want.CompletedAt = time.Time{}, time.Time{}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("v%d = %+v, want %+v", v, got, want)
		}
	}
	if v := mustPut(t, s, storeRes("d", "nsga2", "fpd")); v != 4 {
		t.Fatalf("next version %d, want 4", v)
	}
	if got, err := os.ReadFile(indexPath); err != nil || !bytes.Equal(got, index) {
		t.Fatalf("index.jsonl changed: %q, %v", got, err)
	}
}

// FuzzStoreDir opens the result store on a directory whose files have
// arbitrary names ('/'-separated in the input), each holding a valid
// result. NewStore must return a store or an error, never panic. A store
// it returns must keep a Put across Close and reopen, and give a later
// Put a larger version (unless a file name carried the largest version,
// which Put reports).
func FuzzStoreDir(f *testing.F) {
	r := storeRes("a", "nsga2", "fpa")
	r.Key = ResultKey(r.Fingerprint, r.Objectives, r.Algorithm)
	result, err := json.Marshal(r)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, names string) {
		dir := t.TempDir()
		for _, name := range strings.Split(names, "/") {
			if name == "" || name == "." || name == ".." {
				continue
			}
			// A name the file system refuses is no file in the directory.
			_ = os.WriteFile(filepath.Join(dir, name), result, 0o644)
		}
		cfg := StoreConfig{Dir: dir, MaxResults: 2}
		s, err := NewStore(cfg)
		if err != nil {
			return
		}
		put := func(s *Store, name string) (int, bool) {
			v, err := s.Put(storeRes(name, "nsga2", "fp"+name))
			if errors.Is(err, errVersionsExhausted) {
				return 0, false
			}
			if err != nil {
				t.Fatalf("put %s: %v", name, err)
			}
			return v, true
		}
		v, ok := put(s, "x")
		s.Close()
		if !ok {
			return
		}
		s, err = NewStore(cfg)
		if err != nil {
			t.Fatalf("reopen after a put: %v", err)
		}
		defer s.Close()
		if r, found := s.Get(v); !found || r.Scenario != "x" {
			t.Fatalf("v%d did not survive the reopen: %q, %v", v, r.Scenario, found)
		}
		if later, ok := put(s, "y"); ok && later <= v {
			t.Fatalf("later put got version %d, not above %d", later, v)
		}
	})
}

// FuzzStoreResult feeds arbitrary bytes to the result store as v1.json.
// NewStore must return a store or an error, never panic. With a store, Get, Query, the JSON encoding of what
// they return, and warm-start resolution of "v1" and "auto" over
// ecg-ward's space must not panic, and every resolved seed must index
// that space.
func FuzzStoreResult(f *testing.F) {
	// Seeds: the result file of a finished ecg-ward job, null, and that
	// result with a front point whose config is null.
	seedDir := f.TempDir()
	m := newTestManager(f, Config{Workers: 1, ResultDir: seedDir})
	info, err := m.Submit(smallNSGA2("ecg-ward", 7))
	if err != nil {
		f.Fatal(err)
	}
	if final := waitDone(f, m, info.ID); final.Status != StatusDone {
		f.Fatalf("seed job ended %s: %s", final.Status, final.Error)
	}
	m.Close()
	result, err := os.ReadFile(filepath.Join(seedDir, "v1.json"))
	if err != nil {
		f.Fatal(err)
	}
	var r StoredResult
	if err := json.Unmarshal(result, &r); err != nil {
		f.Fatal(err)
	}
	r.Front[0].Config = nil
	nullConfig, err := json.Marshal(r)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(result)
	f.Add([]byte("null"))
	f.Add(nullConfig)

	sc, _ := scenario.Lookup("ecg-ward")
	space := wardSpace(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "v1.json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := NewStore(StoreConfig{Dir: dir})
		if err != nil {
			return
		}
		defer s.Close()
		got, _ := s.Get(1)
		page, _ := s.Query(ResultQuery{})
		for _, v := range []any{got, page} {
			if _, err := json.Marshal(v); err != nil {
				t.Fatalf("stored result does not encode: %v", err)
			}
		}
		for _, ws := range []string{"v1", WarmStartAuto} {
			seeds, _, _ := ResolveWarmStart(s, ws, sc.Fingerprint(), ObjectivesFull, AlgoNSGA2, sc.Name, space)
			for _, c := range seeds {
				if !space.Valid(c) {
					t.Fatalf("warm start %s resolved seed %v outside the space", ws, c)
				}
			}
		}
	})
}
