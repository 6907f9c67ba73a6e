package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// The consumers pin most of the contract: internal/serve's TestScheddStore*
// (restart warm-up, read-through, corruption, GC, crash leftovers) and
// internal/cluster's TestClusterJournal* (round trip, exactly-once, damaged
// records, audit order). These cover what only the store itself can see.

func key(i int) string { return fmt.Sprintf("%064x", i) }

// TestStoreEachOldestFirst: Each visits records by write time, so a cache
// filled from it ends with the newest records most-recently-used.
func TestStoreEachOldestFirst(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := s.Save(Record{Key: key(i), ContentType: "t", Body: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
		// Newest first on disk, so Each must reorder rather than echo keys.
		at := time.Now().Add(-time.Duration(i) * time.Minute)
		os.Chtimes(filepath.Join(dir, key(i)+ext), at, at)
	}
	s, err = Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	var order []byte
	s.Each(func(r Record) {
		if r.ContentType != "t" {
			t.Errorf("record %.8s lost its content type", r.Key)
		}
		order = append(order, r.Body...)
	})
	if !bytes.Equal(order, []byte{4, 3, 2, 1, 0}) {
		t.Errorf("Each order = %v, want oldest write first [4 3 2 1 0]", order)
	}
}

// TestStoreVanishedRecordRewritten: a record deleted behind the store's
// back is a miss, and the next Put writes it again instead of trusting the
// stale index.
func TestStoreVanishedRecordRewritten(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(key(1), []byte("one")); err != nil {
		t.Fatal(err)
	}
	os.Remove(filepath.Join(dir, key(1)+ext))
	if _, ok := s.Get(key(1)); ok {
		t.Fatal("vanished record served")
	}
	if err := s.Put(key(1), []byte("one")); err != nil {
		t.Fatal(err)
	}
	if body, ok := s.Get(key(1)); !ok || string(body) != "one" {
		t.Errorf("rewritten record = %q, %v", body, ok)
	}
}

// TestStoreConcurrentUse: puts, gets and evictions from many goroutines
// keep the index equal to the directory (run under -race in the gates).
func TestStoreConcurrentUse(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 4<<10)
	if err != nil {
		t.Fatal(err)
	}
	body := bytes.Repeat([]byte("z"), 300)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				k := key(i % 24)
				if err := s.Put(k, body); err != nil {
					t.Error(err)
					return
				}
				if got, ok := s.Get(key((i + g) % 24)); ok && !bytes.Equal(got, body) {
					t.Errorf("torn read of %.8s", k)
				}
			}
		}(g)
	}
	wg.Wait()
	entries, n := s.Stats()
	if n > 4<<10 {
		t.Errorf("resident bytes %d exceed bound", n)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*"+ext))
	var onDisk int64
	for _, f := range files {
		info, err := os.Stat(f)
		if err != nil {
			t.Fatal(err)
		}
		onDisk += info.Size()
	}
	if len(files) != entries || onDisk != n {
		t.Errorf("directory holds %d records / %d bytes, index %d / %d", len(files), onDisk, entries, n)
	}
}
