package serve

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/store"
)

func openTestServer(t *testing.T, opts Options) *Server {
	t.Helper()
	if opts.Logger == nil {
		opts.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if opts.Workers == 0 {
		opts.Workers = 2
	}
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// TestScheddStoreSurvivesRestart is the tier-2 headline: results computed
// in one server lifetime are warm cache hits in the next — the restarted
// worker serves byte-identical bodies without simulating.
func TestScheddStoreSurvivesRestart(t *testing.T) {
	dir := t.TempDir()

	first := openTestServer(t, Options{StoreDir: dir})
	h := first.Handler()
	miss := postRun(t, h, smallRun)
	if miss.Code != http.StatusOK || miss.Header().Get("X-Cache") != "miss" {
		t.Fatalf("first POST: status %d cache %q", miss.Code, miss.Header().Get("X-Cache"))
	}
	// The drain sequence the binary runs on SIGTERM: flush, then stop.
	first.FlushStore()
	first.Close()
	if entries, _ := first.store.Stats(); entries != 1 {
		t.Fatalf("store entries after flush = %d, want 1", entries)
	}

	// "Restart": a fresh server over the same directory. The warm-on-open
	// path must make the very first request a memory-cache hit.
	second := openTestServer(t, Options{StoreDir: dir})
	hit := postRun(t, second.Handler(), smallRun)
	if hit.Code != http.StatusOK {
		t.Fatalf("post-restart POST: status %d", hit.Code)
	}
	if got := hit.Header().Get("X-Cache"); got != "hit" {
		t.Errorf("post-restart X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(hit.Body.Bytes(), miss.Body.Bytes()) {
		t.Errorf("post-restart body differs:\n got: %s\nwant: %s", hit.Body, miss.Body)
	}
	if warmed := second.metrics.storeWarmed.Load(); warmed != 1 {
		t.Errorf("storeWarmed = %d, want 1", warmed)
	}
}

// TestScheddStoreReadThrough: a result on disk but not in memory is still
// a hit — promoted into the LRU, not recomputed.
func TestScheddStoreReadThrough(t *testing.T) {
	dir := t.TempDir()
	s := openTestServer(t, Options{StoreDir: dir})
	h := s.Handler()
	first := postRun(t, h, smallRun)
	if first.Code != http.StatusOK {
		t.Fatal(first.Body)
	}
	s.FlushStore()
	// Evict from memory by replacing the cache wholesale — simulating LRU
	// pressure without needing to size a second giant entry.
	s.cache = newResultCache(s.opts.CacheEntries, s.opts.CacheBytes)

	second := postRun(t, h, smallRun)
	if got := second.Header().Get("X-Cache"); got != "hit" {
		t.Fatalf("read-through X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(second.Body.Bytes(), first.Body.Bytes()) {
		t.Error("read-through body differs")
	}
	if s.metrics.storeHits.Load() != 1 {
		t.Errorf("storeHits = %d, want 1", s.metrics.storeHits.Load())
	}
	// Promoted: the third request is a pure memory hit, no new store read.
	postRun(t, h, smallRun)
	if s.metrics.storeHits.Load() != 1 {
		t.Errorf("promotion did not stick: storeHits = %d", s.metrics.storeHits.Load())
	}
}

// TestScheddStoreCorruptionQuarantined: a flipped bit in a stored body is
// detected by the CRC, served as a miss, and the bad file deleted.
func TestScheddStoreCorruptionQuarantined(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	key := strings.Repeat("ab", 32)
	if err := st.Save(store.Record{Key: key, ContentType: "application/json", Body: []byte("precious result bytes")}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, key+".res")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-3] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Load(key); ok {
		t.Fatal("corrupt entry served")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("corrupt file not deleted")
	}
	if entries, _ := st.Stats(); entries != 0 {
		t.Errorf("stats still count the corrupt entry: %d", entries)
	}
}

// TestScheddStoreGCOldestFirst: past the byte bound the oldest entries go
// first, newest survive, and accounting matches the directory — on put,
// and on a restart with a smaller -store-mb.
func TestScheddStoreGCOldestFirst(t *testing.T) {
	dir := t.TempDir()
	body := bytes.Repeat([]byte("x"), 100)
	st, err := store.Open(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for i := 0; i < 10; i++ {
		key := fmt.Sprintf("%064d", i)
		keys = append(keys, key)
		if err := st.Save(store.Record{Key: key, ContentType: "t", Body: body}); err != nil {
			t.Fatal(err)
		}
		// mtime granularity on some filesystems is coarse; force ordering.
		past := time.Now().Add(time.Duration(i-10) * time.Second)
		os.Chtimes(filepath.Join(dir, key+".res"), past, past)
	}
	// Header ~90 bytes + 100 body; the bound fits roughly 4 entries.
	st, err = store.Open(dir, 800)
	if err != nil {
		t.Fatal(err)
	}
	entries, bytesResident := st.Stats()
	if bytesResident > 800 {
		t.Errorf("resident bytes %d exceed bound", bytesResident)
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "*.res")); len(files) != entries {
		t.Errorf("directory holds %d records, index %d", len(files), entries)
	}
	if _, ok := st.Load(keys[0]); ok {
		t.Error("oldest entry survived GC")
	}
	if _, ok := st.Load(keys[len(keys)-1]); !ok {
		t.Error("newest entry evicted")
	}
	// Puts past the bound evict too: a fresh put pushes out the oldest
	// survivor.
	oldestLeft := keys[len(keys)-entries]
	if err := st.Save(store.Record{Key: strings.Repeat("ef", 32), ContentType: "t", Body: body}); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Load(oldestLeft); ok {
		t.Error("oldest survivor not evicted by a put past the bound")
	}
	// An entry bigger than the whole store is served but never kept.
	if err := st.Save(store.Record{Key: strings.Repeat("cd", 32), ContentType: "t", Body: bytes.Repeat([]byte("y"), 2000)}); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Load(strings.Repeat("cd", 32)); ok {
		t.Error("oversized entry stored")
	}
}

// TestScheddStoreCrashLeftovers: temp files from a crash mid-put are swept
// on open and never surface as results; files the store does not own are
// left alone; unsafe keys are refused.
func TestScheddStoreCrashLeftovers(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "put-12345"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("mine"), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if entries, b := st.Stats(); entries != 0 || b != 0 {
		t.Errorf("leftover temp counted: %d entries %d bytes", entries, b)
	}
	if _, err := os.Stat(filepath.Join(dir, "put-12345")); !os.IsNotExist(err) {
		t.Error("leftover temp file not swept")
	}
	if _, err := os.Stat(filepath.Join(dir, "notes.txt")); err != nil {
		t.Errorf("foreign file removed: %v", err)
	}
	if err := st.Save(store.Record{Key: "../escape", Body: []byte("x")}); err == nil {
		t.Error("non-hash key accepted")
	}
}

// TestScheddStoreMetricsExposed: the store surface shows up in /metrics —
// flush and byte gauges included, which the drain walkthrough reads.
func TestScheddStoreMetricsExposed(t *testing.T) {
	s := openTestServer(t, Options{StoreDir: t.TempDir()})
	h := s.Handler()
	postRun(t, h, smallRun)
	s.FlushStore()

	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	body := rr.Body.String()
	for _, want := range []string{
		"schedd_store_flush_total 1",
		"schedd_store_entries 1",
		"schedd_store_hits_total 0",
		"schedd_store_warmed_total 0",
		"schedd_store_bytes ",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// A store-less server must not advertise store metrics at all.
	plain := testServer(t, Options{})
	rr = httptest.NewRecorder()
	plain.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if strings.Contains(rr.Body.String(), "schedd_store_") {
		t.Error("store metrics exposed without a store")
	}
}
