// Package store is a content-addressed result cache for deterministic
// simulation runs. Because a run is fully determined by its request
// (options + workload mix + budget + seed — PR 1's fixed-seed
// guarantee), the canonical JSON encoding of the request hashed with
// SHA-256 addresses the result forever. The store keeps a byte-budgeted
// in-memory LRU in front of an on-disk layer
// (<dir>/<hh>/<hash>.json, where hh is the first two hex digits);
// disk writes are atomic (temp file + rename) and disk reads verify an
// embedded payload checksum, so a torn or corrupted file is silently
// treated as a miss and removed.
package store

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Key returns the content address of a request value: the SHA-256 hex
// digest of its canonical JSON encoding. Canonicalization round-trips
// the value through a generic JSON tree so object keys are sorted —
// two specs that encode the same fields in different orders produce
// the same key.
func Key(v any) (string, error) {
	data, err := Canonical(v)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// Canonical returns the canonical JSON encoding of v: object keys
// sorted, no insignificant whitespace, numbers preserved verbatim.
func Canonical(v any) ([]byte, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber() // keep 1e6 vs 1000000 and uint64 precision intact
	var tree any
	if err := dec.Decode(&tree); err != nil {
		return nil, err
	}
	return json.Marshal(tree) // map keys are emitted sorted
}

// Stats are the store's monotonic counters plus current occupancy.
type Stats struct {
	Hits        uint64 // served from memory
	DiskHits    uint64 // served from disk (and promoted to memory)
	Misses      uint64
	Evictions   uint64 // memory-LRU evictions (disk copies survive)
	Corrupt     uint64 // disk entries dropped on checksum mismatch
	Bytes       int64  // current memory footprint
	Entries     int    // current memory entry count
	DiskBytes   int64  // current on-disk envelope footprint
	DiskEntries int    // current on-disk entry count
}

// envelope is the on-disk file format.
type envelope struct {
	Checksum string          `json:"checksum"` // sha256 hex of Payload
	Payload  json.RawMessage `json:"payload"`
}

type entry struct {
	key  string
	data []byte
}

// Store is safe for concurrent use.
type Store struct {
	dir      string
	maxBytes int64

	mu    sync.Mutex
	ll    *list.List // front = most recently used
	items map[string]*list.Element
	bytes int64

	// disk maps key -> on-disk envelope size, maintained incrementally
	// after a one-time scan in New so Stats and Keys never walk the
	// tree on the hot path.
	diskMu    sync.Mutex
	disk      map[string]int64
	diskBytes int64

	hits, diskHits, misses, evictions, corrupt atomic.Uint64
}

// New opens (creating if needed) a store rooted at dir with the given
// in-memory byte budget. maxBytes <= 0 disables the memory layer.
func New(dir string, maxBytes int64) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty dir")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{
		dir:      dir,
		maxBytes: maxBytes,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
		disk:     make(map[string]int64),
	}
	s.scanDisk()
	return s, nil
}

// scanDisk seeds the disk index from an existing cache directory.
// Entries that later fail their checksum are dropped on first read, so
// an optimistic size-only scan is enough here.
func (s *Store) scanDisk() {
	subdirs, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	for _, sub := range subdirs {
		if !sub.IsDir() || len(sub.Name()) != 2 {
			continue
		}
		files, err := os.ReadDir(filepath.Join(s.dir, sub.Name()))
		if err != nil {
			continue
		}
		for _, f := range files {
			name := f.Name()
			if f.IsDir() || !strings.HasSuffix(name, ".json") {
				continue
			}
			info, err := f.Info()
			if err != nil {
				continue
			}
			key := strings.TrimSuffix(name, ".json")
			s.disk[key] = info.Size()
			s.diskBytes += info.Size()
		}
	}
}

// Keys returns the content hashes cached in either layer, sorted, so
// peers can enumerate this node's results for warm-up and fill.
func (s *Store) Keys() []string {
	seen := make(map[string]bool)
	s.mu.Lock()
	for key := range s.items {
		seen[key] = true
	}
	s.mu.Unlock()
	s.diskMu.Lock()
	for key := range s.disk {
		seen[key] = true
	}
	s.diskMu.Unlock()
	keys := make([]string, 0, len(seen))
	for key := range seen {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	return keys
}

func (s *Store) diskTrack(key string, size int64) {
	s.diskMu.Lock()
	s.diskBytes += size - s.disk[key]
	s.disk[key] = size
	s.diskMu.Unlock()
}

func (s *Store) diskForget(key string) {
	s.diskMu.Lock()
	if size, ok := s.disk[key]; ok {
		s.diskBytes -= size
		delete(s.disk, key)
	}
	s.diskMu.Unlock()
}

func (s *Store) path(key string) string {
	return filepath.Join(s.dir, key[:2], key+".json")
}

// Get returns the cached payload for key. Callers must not mutate the
// returned slice.
func (s *Store) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	if el, ok := s.items[key]; ok {
		s.ll.MoveToFront(el)
		data := el.Value.(*entry).data
		s.mu.Unlock()
		s.hits.Add(1)
		return data, true
	}
	s.mu.Unlock()

	data, ok := s.readDisk(key)
	if !ok {
		s.misses.Add(1)
		return nil, false
	}
	s.diskHits.Add(1)
	s.memPut(key, data)
	return data, true
}

// readDisk loads and verifies one on-disk entry. Any inconsistency —
// unreadable file, malformed envelope, checksum mismatch — removes the
// file and reports a miss.
func (s *Store) readDisk(key string) ([]byte, bool) {
	raw, err := os.ReadFile(s.path(key))
	if err != nil {
		return nil, false
	}
	var env envelope
	if err := json.Unmarshal(raw, &env); err != nil {
		s.dropCorrupt(key)
		return nil, false
	}
	sum := sha256.Sum256(env.Payload)
	if env.Checksum != hex.EncodeToString(sum[:]) {
		s.dropCorrupt(key)
		return nil, false
	}
	return env.Payload, true
}

func (s *Store) dropCorrupt(key string) {
	s.corrupt.Add(1)
	os.Remove(s.path(key))
	s.diskForget(key)
}

// Put stores data under key in both layers. data must be a valid JSON
// document (results always are); it is embedded verbatim in the on-disk
// envelope. Concurrent writers of the same key are safe: each writes
// its own temp file and the atomic rename leaves exactly one
// <hash>.json behind.
func (s *Store) Put(key string, data []byte) error {
	s.memPut(key, data)
	return s.PutDisk(key, data)
}

func (s *Store) memPut(key string, data []byte) {
	if s.maxBytes <= 0 || int64(len(data)) > s.maxBytes {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[key]; ok {
		e := el.Value.(*entry)
		s.bytes += int64(len(data)) - int64(len(e.data))
		e.data = data
		s.ll.MoveToFront(el)
	} else {
		s.items[key] = s.ll.PushFront(&entry{key: key, data: data})
		s.bytes += int64(len(data))
	}
	for s.bytes > s.maxBytes {
		el := s.ll.Back()
		if el == nil {
			break
		}
		e := s.ll.Remove(el).(*entry)
		delete(s.items, e.key)
		s.bytes -= int64(len(e.data))
		s.evictions.Add(1)
	}
}

// PutDisk stores data under key on disk only, leaving the memory layer
// as it is. A later Get reads the copy from disk and promotes it.
func (s *Store) PutDisk(key string, data []byte) error {
	sum := sha256.Sum256(data)
	env, err := json.Marshal(envelope{
		Checksum: hex.EncodeToString(sum[:]),
		Payload:  json.RawMessage(data),
	})
	if err != nil {
		return err
	}
	dir := filepath.Dir(s.path(key))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, key+".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(env); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), s.path(key)); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	s.diskTrack(key, int64(len(env)))
	return nil
}

// Stats snapshots the counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	bytes, entries := s.bytes, len(s.items)
	s.mu.Unlock()
	s.diskMu.Lock()
	diskBytes, diskEntries := s.diskBytes, len(s.disk)
	s.diskMu.Unlock()
	return Stats{
		Hits:        s.hits.Load(),
		DiskHits:    s.diskHits.Load(),
		Misses:      s.misses.Load(),
		Evictions:   s.evictions.Load(),
		Corrupt:     s.corrupt.Load(),
		Bytes:       bytes,
		Entries:     entries,
		DiskBytes:   diskBytes,
		DiskEntries: diskEntries,
	}
}
