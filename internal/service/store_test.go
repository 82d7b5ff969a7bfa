package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

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
// recorded evictions must all round-trip through the on-disk index.
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

	// Crash tolerance: a torn final index line (no trailing newline, half
	// a record) must not prevent reopening, and everything before the
	// tear survives.
	tornDir := t.TempDir()
	s5, err := NewStore(StoreConfig{Dir: tornDir, MaxResults: 8})
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, s5, storeRes("a", "nsga2", "fpA"))
	s5.Close()
	f, err := os.OpenFile(filepath.Join(tornDir, "index.jsonl"), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"op":"put","ver`)
	f.Close()
	s6, err := NewStore(StoreConfig{Dir: tornDir, MaxResults: 8})
	if err != nil {
		t.Fatalf("torn index line broke reopen: %v", err)
	}
	defer s6.Close()
	if s6.Len() != 1 {
		t.Fatalf("store after torn line holds %d, want 1", s6.Len())
	}
}

// TestStoreTornIndexTail: a record a crash tore off the end of the
// index is cut before the next append, so the records put after one
// restart survive the next, and their versions are never given out
// again.
func TestStoreTornIndexTail(t *testing.T) {
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
	v1 := mustPut(t, s, storeRes("a", "nsga2", "fpA"))
	s.Close()
	f, err := os.OpenFile(filepath.Join(dir, "index.jsonl"), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"put","vers`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s = open()
	v2 := mustPut(t, s, storeRes("b", "nsga2", "fpB"))
	v3 := mustPut(t, s, storeRes("c", "nsga2", "fpC"))
	s.Close()
	s = open()
	defer s.Close()
	for v, name := range map[int]string{v1: "a", v2: "b", v3: "c"} {
		if r, ok := s.Get(v); !ok || r.Scenario != name {
			t.Errorf("after the second restart v%d holds %q (found %v), want %q", v, r.Scenario, ok, name)
		}
	}
	if v4 := mustPut(t, s, storeRes("d", "nsga2", "fpD")); v4 != v3+1 {
		t.Fatalf("next version %d, want %d", v4, v3+1)
	}
}

// FuzzStoreIndex feeds arbitrary bytes to the result store as its
// index.jsonl, beside one valid result file (v1.json). NewStore must
// return a store or an error, never panic. A store it returns must keep
// a Put across Close and reopen, and give a later Put a larger version
// (unless a damaged index used up every version, which Put reports).
func FuzzStoreIndex(f *testing.F) {
	// Seed: a real index with puts and evictions, whole and torn.
	seedDir := f.TempDir()
	s, err := NewStore(StoreConfig{Dir: seedDir, MaxResults: 2})
	if err != nil {
		f.Fatal(err)
	}
	for _, name := range []string{"a", "b", "c"} {
		if _, err := s.Put(storeRes(name, "nsga2", "fp"+name)); err != nil {
			f.Fatal(err)
		}
	}
	s.Close()
	index, err := os.ReadFile(filepath.Join(seedDir, "index.jsonl"))
	if err != nil {
		f.Fatal(err)
	}
	result, err := os.ReadFile(filepath.Join(seedDir, "v3.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(index)
	f.Add(index[:len(index)-9])
	f.Add([]byte{})
	// A damaged index that puts one version three times.
	f.Add([]byte(`{"op":"put","version":1}
{"op":"evict","version":1}
{"op":"put","version":1}
{"op":"evict","version":1}
{"op":"put","version":1}
`))

	f.Fuzz(func(t *testing.T, index []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "v1.json"), result, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "index.jsonl"), index, 0o644); err != nil {
			t.Fatal(err)
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

// FuzzStoreResult feeds arbitrary bytes to the result store as v1.json,
// beside an index.jsonl that puts v1. NewStore must return a store or an
// error, never panic. With a store, Get, Query, the JSON encoding of what
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

	index := []byte(`{"op":"put","version":1,"key":"` + r.Key + `"}` + "\n")
	sc, _ := scenario.Lookup("ecg-ward")
	space := wardSpace(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "index.jsonl"), index, 0o644); err != nil {
			t.Fatal(err)
		}
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
