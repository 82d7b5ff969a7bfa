package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wsndse/internal/service/faultinject"
)

// ObjectivesFull names the three-objective evaluator every service job
// runs (energy, signal quality, delay — the paper's Eq. 1–9 metrics).
// The objective set is part of a result's content key: a front computed
// under the baseline (energy, delay) projection must never seed or
// answer queries for a full three-objective search.
var ObjectivesFull = []string{"energy", "quality", "delay"}

// ObjectivesBaseline names the application-blind (energy, delay)
// projection wsn-explore's -objectives baseline mode searches.
var ObjectivesBaseline = []string{"energy", "delay"}

// resultKeyVersion prefixes the key encoding, so a future change to the
// encoding visibly changes every key instead of silently colliding.
const resultKeyVersion = "wsndse/resultkey/v1"

// ResultKey is the content address of an exploration result: a hex
// SHA-256 over (scenario fingerprint, objective set, algorithm). Two
// jobs with the same key explored the same problem — identical scenario
// content (regardless of registered name), identical objective space,
// same algorithm family — so their fronts are interchangeable as
// warm-start seeds and cache answers. Seeds and algorithm configs are
// deliberately excluded: they change how well the front was found, not
// what problem it belongs to.
func ResultKey(fingerprint string, objectives []string, algorithm string) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\nfp %s\nobjs %s\nalgo %s\n",
		resultKeyVersion, fingerprint, strings.Join(objectives, ","), algorithm)
	return hex.EncodeToString(h.Sum(nil))
}

// StoredResult is one finished exploration kept by the Store: the front
// plus the identity that produced it. Version is a process-lifetime
// monotonic counter (persisted stores continue where the dead process
// stopped) — "the ward's front as of version 17" is a stable reference
// even as newer jobs re-explore the same scenario. Key/Fingerprint/
// Objectives are the content identity warm starting resolves against.
type StoredResult struct {
	Version     int          `json:"version"`
	Key         string       `json:"key"`
	Fingerprint string       `json:"fingerprint"`
	Objectives  []string     `json:"objectives"`
	JobID       string       `json:"job_id"`
	Scenario    string       `json:"scenario"`
	Algorithm   string       `json:"algorithm"`
	Seed        int64        `json:"seed"`
	Evaluated   int          `json:"evaluated"`
	Infeasible  int          `json:"infeasible"`
	Front       []FrontPoint `json:"front"`
	CompletedAt time.Time    `json:"completed_at"`
}

// ResultQuery filters and paginates Store.Query. Zero-valued string
// filters match everything; Family matches results whose scenario name
// is "<Family>/..." (the generated-population prefix). Limit <= 0 means
// no page bound; Offset skips that many matches. Matches come back
// newest-first (descending version): the freshest front is the one warm
// starts and dashboards want on page one.
type ResultQuery struct {
	Key         string
	Fingerprint string
	Scenario    string
	Family      string
	Algorithm   string
	Limit       int
	Offset      int
}

func (q ResultQuery) matches(r *StoredResult) bool {
	if q.Key != "" && r.Key != q.Key {
		return false
	}
	if q.Fingerprint != "" && r.Fingerprint != q.Fingerprint {
		return false
	}
	if q.Scenario != "" && r.Scenario != q.Scenario {
		return false
	}
	if q.Family != "" && !strings.HasPrefix(r.Scenario, q.Family+"/") {
		return false
	}
	if q.Algorithm != "" && r.Algorithm != q.Algorithm {
		return false
	}
	return true
}

// DefaultMaxResults bounds an unconfigured store. The store is a working
// set, not an archive: at millions-of-users scale the value of a front
// decays once fresher re-explorations of the same key exist, so the
// bound evicts the least-recently-used result rather than growing
// without limit.
const DefaultMaxResults = 1024

// StoreConfig parameterizes a Store. The zero value is a purely
// in-memory store bounded at DefaultMaxResults.
type StoreConfig struct {
	// Dir, when set, keeps every retained result in <Dir>/v<version>.json
	// (atomic tmp+rename, like the checkpoint path), and those files are
	// the whole durable store: eviction removes a result's file, and a
	// Store reopened on the same directory serves the files it finds
	// with the version counter continuing after the largest. A file
	// deleted by hand is forgotten, so if it held the newest version
	// that number is given out again; a file whose eviction could not
	// remove it is served again after a restart.
	Dir string
	// MaxResults bounds how many results are retained (<= 0 selects
	// DefaultMaxResults). Beyond it the least-recently-used result is
	// evicted; a Get hit refreshes recency, a Query (a read-locked scan)
	// does not.
	MaxResults int
}

// storedEntry is one retained result, linked into the store's recency
// list. The result's Front is nil: its points are in front, which a done
// job's record shares. Its Key is its keyed group's string and a job's
// Fingerprint the registry's, so entries of one content key share both.
type storedEntry struct {
	res        StoredResult
	front      *packedFront
	prev, next *storedEntry // next is the less recently used
}

// keyed is the versions of one content key, ascending, and the key
// string every entry of the group shares.
type keyed struct {
	key      string
	versions []int
}

// result returns the entry's result with a fresh copy of its front.
func (e *storedEntry) result() StoredResult {
	r := e.res
	r.Front = e.front.points()
	return r
}

// Store is the content-addressed result archive: every successfully
// finished job's front, keyed by version and by ResultKey, LRU-bounded,
// and (with StoreConfig.Dir) kept as one file per result, durable across
// process death. Results are immutable once stored — superseded by newer
// versions, never overwritten. All methods are safe for concurrent use.
type Store struct {
	mu        sync.RWMutex
	cfg       StoreConfig
	byVer     map[int]*storedEntry // O(1) version lookup
	byKey     map[string]*keyed    // content key → its versions
	lru       storedEntry          // recency list root: next is the most recently used, prev the least
	nextVer   int
	evictions atomic.Int64 // lifetime LRU evictions, for /metrics
}

// NewStore opens a store. With cfg.Dir set it creates the directory and
// loads the result files in it (see load), so the returned store carries
// the previous process's results.
func NewStore(cfg StoreConfig) (*Store, error) {
	if cfg.MaxResults <= 0 {
		cfg.MaxResults = DefaultMaxResults
	}
	s := &Store{
		cfg:   cfg,
		byVer: make(map[int]*storedEntry),
		byKey: make(map[string]*keyed),
	}
	s.lru.prev, s.lru.next = &s.lru, &s.lru
	if cfg.Dir == "" {
		return s, nil
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("service: result store dir: %w", err)
	}
	if err := s.load(); err != nil {
		return nil, err
	}
	// A store reopened with a smaller bound trims immediately, oldest
	// version first.
	for len(s.byVer) > s.cfg.MaxResults {
		s.evictOldest()
	}
	return s, nil
}

func (s *Store) resultPath(version int) string {
	return filepath.Join(s.cfg.Dir, fmt.Sprintf("v%d.json", version))
}

// load inserts every result file in the store's directory in version
// order, which is also recency order: the rebuilt LRU treats older
// versions as colder. A result file is named v<N>.json with N read as
// jobNumber reads a job's number, so a crash's v<N>.json.tmp, v01.json
// or v0.json is not one. New versions count up from the largest N: the
// store never evicts its newest result (a put's own entry is the most
// recent, and a reopen trims oldest first), so that file is only gone
// if removed by hand. A file removed after the listing (another
// process's eviction) is skipped.
func (s *Store) load() error {
	entries, err := os.ReadDir(s.cfg.Dir)
	if err != nil {
		return fmt.Errorf("service: result store dir: %w", err)
	}
	var versions []int
	for _, e := range entries {
		if v, ok := serial(e.Name(), "v", ".json"); ok {
			versions = append(versions, v)
		}
	}
	slices.Sort(versions)
	for _, v := range versions {
		s.nextVer = v
		data, err := os.ReadFile(s.resultPath(v))
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			return fmt.Errorf("service: result store: %w", err)
		}
		var r StoredResult
		if err := json.Unmarshal(data, &r); err != nil {
			return fmt.Errorf("service: corrupt result file v%d.json: %w", v, err)
		}
		r.Version = v
		s.insert(r, pack(r.Front))
	}
	return nil
}

// insert registers r (whose Version is already assigned) with front as
// its points in the maps and LRU as most-recently-used. Caller holds mu.
func (s *Store) insert(r StoredResult, front *packedFront) {
	k := s.byKey[r.Key]
	if k == nil {
		k = &keyed{key: r.Key}
		s.byKey[r.Key] = k
	}
	k.versions = append(k.versions, r.Version)
	r.Front, r.Key = nil, k.key
	e := &storedEntry{res: r, front: front}
	s.pushFront(e)
	s.byVer[r.Version] = e
}

// pushFront links e into the recency list as the most recently used.
// Caller holds mu.
func (s *Store) pushFront(e *storedEntry) {
	e.prev, e.next = &s.lru, s.lru.next
	e.prev.next, e.next.prev = e, e
}

// unlink takes e out of the recency list. Caller holds mu.
func (s *Store) unlink(e *storedEntry) {
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = nil, nil
}

// errVersionsExhausted fails a Put after a result file named with the
// largest version a file name can carry: a later version's file would
// not be read back.
var errVersionsExhausted = errors.New("service: result store has no version numbers left")

// Put archives a result, assigns its version (monotonic in completion
// order, continuing across restarts for persistent stores), computes its
// content key when unset, persists it, and evicts beyond the size bound.
// A persistence failure is returned to the caller — a store that cannot
// keep its durability promise must not pretend it did. The store keeps a
// packed copy of r.Front, so the caller's front stays the caller's.
func (s *Store) Put(r StoredResult) (int, error) {
	return s.put(r, pack(r.Front))
}

// put is Put with the result's points already packed in front; r.Front
// is ignored. A done job's record and its store entry share front.
func (s *Store) put(r StoredResult, front *packedFront) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r.Key == "" {
		r.Key = ResultKey(r.Fingerprint, r.Objectives, r.Algorithm)
	}
	if s.nextVer >= maxJobNumber {
		return 0, errVersionsExhausted
	}
	r.Version = s.nextVer + 1
	if s.cfg.Dir != "" {
		r.Front = front.points()
		data, err := json.Marshal(r)
		if err != nil {
			return 0, err
		}
		if err := writeFileAtomic(s.resultPath(r.Version), data); err != nil {
			return 0, err
		}
	}
	s.nextVer = r.Version
	s.insert(r, front)
	for len(s.byVer) > s.cfg.MaxResults {
		s.evictOldest()
	}
	return r.Version, nil
}

// evictOldest drops the least-recently-used result. Caller holds mu.
func (s *Store) evictOldest() {
	e := s.lru.prev
	if e == &s.lru {
		return
	}
	s.evictions.Add(1)
	v := e.res.Version
	s.unlink(e)
	delete(s.byVer, v)
	k := s.byKey[e.res.Key]
	if i := slices.Index(k.versions, v); i >= 0 {
		k.versions = slices.Delete(k.versions, i, i+1)
	}
	if len(k.versions) == 0 {
		delete(s.byKey, e.res.Key)
	}
	if s.cfg.Dir != "" {
		// Best-effort: a file left behind is served again after a
		// restart.
		os.Remove(s.resultPath(v))
	}
}

// Get returns the result at an exact version and refreshes its recency.
// Its front is built afresh from the packed copy the store keeps, so it is
// the caller's own to change. Evicted versions are gone: false, like
// versions never assigned.
func (s *Store) Get(version int) (StoredResult, bool) {
	s.mu.Lock()
	e, ok := s.byVer[version]
	if ok {
		s.unlink(e)
		s.pushFront(e)
	}
	s.mu.Unlock()
	if !ok {
		return StoredResult{}, false
	}
	return e.result(), true // an entry never changes: no lock needed
}

// Query returns retained results matching the filters, newest first,
// paginated by q.Limit/q.Offset; each front on the page is the caller's
// own, as in Get.
// total counts every match before pagination, so clients can page
// through without a second endpoint.
func (s *Store) Query(q ResultQuery) (page []StoredResult, total int) {
	var hits []*storedEntry
	s.mu.RLock()
	vers := make([]int, 0, len(s.byVer))
	if q.Key != "" {
		if k := s.byKey[q.Key]; k != nil {
			vers = append(vers, k.versions...)
		}
	} else {
		for v := range s.byVer {
			vers = append(vers, v)
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(vers)))
	for _, v := range vers {
		e := s.byVer[v]
		if !q.matches(&e.res) {
			continue
		}
		if total >= q.Offset && (q.Limit <= 0 || len(hits) < q.Limit) {
			hits = append(hits, e)
		}
		total++
	}
	s.mu.RUnlock()
	// Fronts are built after the lock is released: an entry never
	// changes.
	for _, e := range hits {
		page = append(page, e.result())
	}
	return page, total
}

// Evictions returns how many results the LRU bound has evicted over the
// store's lifetime.
func (s *Store) Evictions() int64 { return s.evictions.Load() }

// Len returns how many results are currently retained.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.byVer)
}

// Close releases nothing: a store holds no open file between calls. It
// remains so that callers can close a store whatever backs it.
func (s *Store) Close() error { return nil }

// writeFileAtomic writes data via a temp file and rename, so a crash
// mid-write never leaves a truncated result on disk.
func writeFileAtomic(path string, data []byte) error {
	if err := faultinject.StoreWrite(path); err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
