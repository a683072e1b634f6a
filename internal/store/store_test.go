package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// Two spec shapes with the same JSON fields declared in different
// orders: content addressing must not depend on field order.
type specA struct {
	Budget uint64   `json:"budget"`
	Seed   uint64   `json:"seed"`
	Mixes  []string `json:"mixes"`
	Scheme string   `json:"scheme"`
}

type specB struct {
	Scheme string   `json:"scheme"`
	Mixes  []string `json:"mixes"`
	Seed   uint64   `json:"seed"`
	Budget uint64   `json:"budget"`
}

func TestKeyStableAcrossFieldOrder(t *testing.T) {
	a := specA{Budget: 200_000, Seed: 1, Mixes: []string{"Mix 1", "Mix 2"}, Scheme: "rrob"}
	b := specB{Scheme: "rrob", Mixes: []string{"Mix 1", "Mix 2"}, Seed: 1, Budget: 200_000}
	ka, err := Key(a)
	if err != nil {
		t.Fatal(err)
	}
	kb, err := Key(b)
	if err != nil {
		t.Fatal(err)
	}
	if ka != kb {
		t.Fatalf("field order changed the key: %s vs %s", ka, kb)
	}
	if len(ka) != 64 {
		t.Fatalf("key %q is not a sha256 hex digest", ka)
	}

	c := a
	c.Seed = 2
	if kc, _ := Key(c); kc == ka {
		t.Fatal("different specs collided")
	}
}

func TestKeyPreservesLargeNumbers(t *testing.T) {
	type s struct {
		N uint64 `json:"n"`
	}
	k1, _ := Key(s{N: 1<<63 + 1})
	k2, _ := Key(s{N: 1<<63 + 2})
	if k1 == k2 {
		t.Fatal("uint64 precision lost in canonicalization")
	}
}

func TestRoundTripAndDiskPromotion(t *testing.T) {
	dir := t.TempDir()
	s, err := New(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	key, _ := Key(specA{Budget: 1, Scheme: "x"})
	payload := []byte(`{"result":42}`)
	if err := s.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(key)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("memory get: %q %v", got, ok)
	}

	// A fresh store over the same dir must serve from disk.
	s2, err := New(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	got, ok = s2.Get(key)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("disk get: %q %v", got, ok)
	}
	st := s2.Stats()
	if st.DiskHits != 1 || st.Hits != 0 {
		t.Fatalf("stats after disk hit: %+v", st)
	}
	// Promoted: second read is a memory hit.
	if _, ok := s2.Get(key); !ok {
		t.Fatal("promoted entry missing")
	}
	if st := s2.Stats(); st.Hits != 1 {
		t.Fatalf("stats after promotion: %+v", st)
	}
}

func TestLRUEvictionAtByteBudget(t *testing.T) {
	dir := t.TempDir()
	s, err := New(dir, 256)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte(`"` + strings.Repeat("x", 98) + `"`) // 100 bytes of valid JSON
	keys := make([]string, 3)
	for i := range keys {
		keys[i], _ = Key(fmt.Sprintf("k%d", i))
		if err := s.Put(keys[i], payload); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Evictions != 1 {
		t.Fatalf("want 1 eviction at 300 bytes over a 256-byte budget, got %+v", st)
	}
	if st.Bytes > 256 {
		t.Fatalf("over budget: %+v", st)
	}
	// keys[0] was least recently used: evicted from memory, still on disk.
	if _, ok := s.Get(keys[0]); !ok {
		t.Fatal("evicted entry lost from disk")
	}
	if st := s.Stats(); st.DiskHits != 1 {
		t.Fatalf("evicted entry not served from disk: %+v", st)
	}
	// keys[2] is hot: memory hit.
	if _, ok := s.Get(keys[2]); !ok {
		t.Fatal("hot entry missing")
	}
	if st := s.Stats(); st.Hits != 1 {
		t.Fatalf("hot entry not served from memory: %+v", st)
	}
}

func TestOversizedPayloadSkipsMemory(t *testing.T) {
	s, err := New(t.TempDir(), 8)
	if err != nil {
		t.Fatal(err)
	}
	key, _ := Key("big")
	if err := s.Put(key, []byte(`"`+strings.Repeat("y", 62)+`"`)); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Entries != 0 || st.Evictions != 0 {
		t.Fatalf("oversized payload should bypass memory: %+v", st)
	}
	if _, ok := s.Get(key); !ok {
		t.Fatal("oversized payload not on disk")
	}
}

func TestCorruptedDiskFileIsAMiss(t *testing.T) {
	dir := t.TempDir()
	s, _ := New(dir, 1<<20)
	key, _ := Key("corrupt-me")
	if err := s.Put(key, []byte(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, key[:2], key+".json")

	for name, mutate := range map[string]func([]byte) []byte{
		"bit-flip in payload": func(b []byte) []byte {
			out := bytes.Replace(b, []byte(`"v":1`), []byte(`"v":2`), 1)
			return out
		},
		"truncated": func(b []byte) []byte { return b[:len(b)/2] },
		"not json":  func(b []byte) []byte { return []byte("garbage") },
	} {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, mutate(raw), 0o644); err != nil {
			t.Fatal(err)
		}
		fresh, _ := New(dir, 1<<20)
		if _, ok := fresh.Get(key); ok {
			t.Fatalf("%s: corrupted entry served", name)
		}
		st := fresh.Stats()
		if st.Corrupt != 1 || st.Misses != 1 {
			t.Fatalf("%s: stats %+v", name, st)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("%s: corrupted file not removed", name)
		}
		// Restore for the next case.
		if err := s.PutDisk(key, []byte(`{"v":1}`)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestKeysUnionMemoryAndDisk: a fresh store over an existing directory
// serves every key the first one wrote, and its disk-scan gauges count
// each file once, before and after reads promote entries into memory.
func TestKeysUnionMemoryAndDisk(t *testing.T) {
	dir := t.TempDir()
	s, _ := New(dir, 1<<20)
	var want []string
	payload := map[string]string{}
	var fileBytes int64
	for i := 0; i < 4; i++ {
		key, _ := Key(fmt.Sprintf("entry-%d", i))
		want = append(want, key)
		payload[key] = `{"i":` + fmt.Sprint(i) + `}`
		if err := s.Put(key, []byte(payload[key])); err != nil {
			t.Fatal(err)
		}
		info, err := os.Stat(filepath.Join(dir, key[:2], key+".json"))
		if err != nil {
			t.Fatal(err)
		}
		fileBytes += info.Size()
	}
	if st := s.Stats(); st.DiskEntries != 4 || st.DiskBytes != fileBytes {
		t.Fatalf("disk stats after puts: %+v, want 4 entries, %d bytes", st, fileBytes)
	}

	// A fresh store over the same dir finds every entry by its disk scan
	// and serves each one from disk.
	s2, _ := New(dir, 1<<20)
	if st := s2.Stats(); st.DiskEntries != 4 || st.DiskBytes != fileBytes {
		t.Fatalf("disk stats after scan: %+v, want 4 entries, %d bytes", st, fileBytes)
	}
	for _, key := range want {
		data, ok := s2.Get(key)
		if !ok || string(data) != payload[key] {
			t.Fatalf("fresh store Get(%s) = %q, %v; want %q", key[:12], data, ok, payload[key])
		}
	}
	st := s2.Stats()
	if st.DiskHits != 4 || st.DiskEntries != 4 || st.DiskBytes != fileBytes {
		t.Fatalf("disk stats after promoting reads: %+v, want 4 disk hits, 4 entries, %d bytes", st, fileBytes)
	}

	// Overwriting a key must not double-count its disk footprint.
	before := s.Stats().DiskBytes
	if err := s.Put(want[0], []byte(`{"i":0}`)); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.DiskEntries != 4 || st.DiskBytes != before {
		t.Fatalf("disk stats after same-size overwrite: %+v (before %d)", st, before)
	}

	// Corruption removes the entry from the disk index too.
	path := filepath.Join(dir, want[0][:2], want[0]+".json")
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	fresh, _ := New(dir, 0) // no memory layer: reads always consult disk
	if _, ok := fresh.Get(want[0]); ok {
		t.Fatal("corrupted entry served")
	}
	if st := fresh.Stats(); st.DiskEntries != 3 {
		t.Fatalf("corrupt entry still indexed: %+v", st)
	}
}

func TestConcurrentSameKeyWritersProduceOneFile(t *testing.T) {
	dir := t.TempDir()
	s, _ := New(dir, 1<<20)
	key, _ := Key("contended")
	payload := []byte(`{"deterministic":true}`)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := s.Put(key, payload); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	entries, err := os.ReadDir(filepath.Join(dir, key[:2]))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if len(names) != 1 || names[0] != key+".json" {
		t.Fatalf("want exactly one %s.json, got %v", key[:8], names)
	}
	if strings.Contains(strings.Join(names, ","), ".tmp-") {
		t.Fatalf("temp files leaked: %v", names)
	}
	if got, ok := s.Get(key); !ok || !bytes.Equal(got, payload) {
		t.Fatalf("get after contended put: %q %v", got, ok)
	}
}
