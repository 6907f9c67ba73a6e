package cluster

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/store"
)

// The coordinator's sweep journal is a result store (internal/store) used
// as its engine.Memo. These tests pin the journal contract the coordinator
// and the chaos gate rely on; TestClusterJournalResume and
// TestClusterJournalPartialResume (robustness_test.go) drive it through
// the coordinator itself.

// contentKey is a test content address: the sha256 of a label, the same
// shape as every production point key.
func contentKey(label string) string {
	sum := sha256.Sum256([]byte(label))
	return hex.EncodeToString(sum[:])
}

func openJournal(t *testing.T, dir string) *store.Store {
	t.Helper()
	j, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func journalLen(j *store.Store) int {
	n, _ := j.Stats()
	return n
}

// TestClusterJournalRoundTrip: recorded points survive a reopen with the
// same keys and bytes — the basic durability contract.
func TestClusterJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j := openJournal(t, dir)
	want := map[string][]byte{}
	for i := 0; i < 20; i++ {
		key := contentKey(fmt.Sprintf("point-%02d", i))
		body := []byte(fmt.Sprintf(`{"point":%d,"payload":"%d"}`, i, i*i))
		want[key] = body
		if err := j.Put(key, body); err != nil {
			t.Fatal(err)
		}
	}

	j2 := openJournal(t, dir)
	if journalLen(j2) != len(want) {
		t.Fatalf("reopened journal holds %d entries, want %d", journalLen(j2), len(want))
	}
	for key, body := range want {
		got, ok := j2.Get(key)
		if !ok {
			t.Fatalf("key %.12s lost across reopen", key)
		}
		if !bytes.Equal(got, body) {
			t.Errorf("key %.12s: body %s, want %s", key, got, body)
		}
	}
}

// TestClusterJournalDedupe: re-putting a journaled key is a no-op — the
// journal stays exactly-once per point, which is what the chaos gate
// audits.
func TestClusterJournalDedupe(t *testing.T) {
	dir := t.TempDir()
	j := openJournal(t, dir)
	key := contentKey("dup")
	for i := 0; i < 5; i++ {
		if err := j.Put(key, []byte("body")); err != nil {
			t.Fatal(err)
		}
	}
	if journalLen(j) != 1 {
		t.Errorf("journal holds %d entries after 5 duplicate Puts, want 1", journalLen(j))
	}
	records, err := store.Scan(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 1 {
		t.Errorf("Scan found %d records, want 1", len(records))
	}
}

// TestClusterJournalTornTail simulates a crash that leaves a damaged
// record behind: it must not poison the reopen, must not be served, and
// must be gone so later puts produce a journal every auditor reads in
// full.
func TestClusterJournalTornTail(t *testing.T) {
	torn := contentKey("torn")
	for _, tc := range []struct {
		name string
		file []byte
	}{
		{"partial line", []byte(`{"key":"` + torn + `","co`)},
		{"not json", []byte("garbage bytes not a record\n")},
		{"bad checksum", []byte(`{"key":"` + torn + `","content_type":"","crc":1}` + "\nhi")},
		{"valid json wrong shape", []byte(`{"other":"thing"}` + "\n")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			j := openJournal(t, dir)
			if err := j.Put(contentKey("good-1"), []byte("one")); err != nil {
				t.Fatal(err)
			}
			if err := j.Put(contentKey("good-2"), []byte("two")); err != nil {
				t.Fatal(err)
			}
			tornPath := filepath.Join(dir, torn+".res")
			if err := os.WriteFile(tornPath, tc.file, 0o644); err != nil {
				t.Fatal(err)
			}

			j2 := openJournal(t, dir)
			if journalLen(j2) != 2 {
				t.Fatalf("reopened journal holds %d entries past a torn record, want 2", journalLen(j2))
			}
			if _, ok := j2.Get(torn); ok {
				t.Error("torn record resurrected")
			}
			if _, err := os.Stat(tornPath); !os.IsNotExist(err) {
				t.Error("torn record left on disk")
			}
			if err := j2.Put(contentKey("good-3"), []byte("three")); err != nil {
				t.Fatal(err)
			}
			records, err := store.Scan(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(records) != 3 {
				t.Fatalf("journal after recovery has %d records, want 3", len(records))
			}
			if body, ok := j2.Get(contentKey("good-3")); !ok || !bytes.Equal(body, []byte("three")) {
				t.Errorf("post-recovery record = %q, %v; want three", body, ok)
			}
		})
	}
}

// TestClusterJournalEmptyAndMissing: opening a fresh nested directory
// works, and auditing a directory that does not exist reports a not-exist
// error rather than an empty success.
func TestClusterJournalEmptyAndMissing(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "journal")
	j := openJournal(t, dir)
	if journalLen(j) != 0 {
		t.Errorf("fresh journal has %d entries", journalLen(j))
	}
	if records, err := store.Scan(dir); err != nil || len(records) != 0 {
		t.Errorf("Scan of a fresh journal = %d records, %v", len(records), err)
	}
	if _, err := store.Scan(filepath.Join(t.TempDir(), "absent")); !os.IsNotExist(err) {
		t.Errorf("Scan of a missing dir: err = %v, want not-exist", err)
	}
}

// TestClusterJournalKeysSorted: Scan is the deterministic audit order,
// sorted by key whatever the write order.
func TestClusterJournalKeysSorted(t *testing.T) {
	dir := t.TempDir()
	j := openJournal(t, dir)
	for _, k := range []string{"cccccccc", "aaaaaaaa", "bbbbbbbb"} {
		if err := j.Put(k, []byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	records, err := store.Scan(dir)
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for _, r := range records {
		keys = append(keys, r.Key)
	}
	if fmt.Sprint(keys) != "[aaaaaaaa bbbbbbbb cccccccc]" {
		t.Errorf("Scan keys = %v, want sorted", keys)
	}
}
