// Package store is the durable result store: a directory that maps content
// addresses to the exact response bytes once served for them. It has two
// users, both of which need the same promise — an acknowledged result
// survives a crash, byte for byte:
//
//   - schedd's tier-2 cache behind the in-memory LRU (schedd -store DIR),
//     so a restarted worker serves hits for everything it computed before;
//   - the coordinator's sweep journal (schedd -coordinate -journal DIR, or
//     any tool's -cluster-journal DIR), so an interrupted sweep resumes
//     instead of restarting. *Store implements engine.Memo for this.
//
// Layout: one <key>.res file per record — a one-line JSON header
// {"key","content_type","crc"} followed by the raw body, where crc is the
// CRC32 (IEEE) of the body. The filename is the key itself (keys are hex
// digests, so they are safe filenames); the header repeats it so reading
// never trusts a filename.
//
// Recovery is one story for every user:
//
//   - Put writes a put-* temp file, fsyncs it, renames it into place and
//     fsyncs the directory: a record is either complete and durable or
//     absent. A crash mid-put leaves only a temp file, removed on the next
//     Open.
//   - Open verifies every record. One that fails to parse or checksum, or
//     names a different key, is deleted and counts as never written — its
//     point was never acknowledged, so it is simply recomputed. Reads
//     verify again, so corruption that appears while the store is open is
//     a miss, never a wrong answer.
//   - A key is written at most once: putting a resident key is a no-op
//     (the bytes are identical by determinism). The directory is therefore
//     an exactly-once ledger of completed points, which Scan audits.
//
// An optional byte bound evicts the oldest records (by write time) past
// it; the journal runs unbounded.
package store

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"time"
)

// Record is one stored result.
type Record struct {
	Key         string
	ContentType string // empty for journal records
	Body        []byte
}

// header is the first line of every record file.
type header struct {
	Key         string `json:"key"`
	ContentType string `json:"content_type"`
	CRC         uint32 `json:"crc"` // crc32(IEEE) of the body bytes
}

const (
	ext       = ".res" // finished records
	tmpPrefix = "put-" // in-progress puts; swept on Open
)

// safeKey matches keys usable directly as filenames. Every key the repo
// stores is a hex sha256; anything else is refused rather than hashed
// again, and files whose names are not such keys are left alone.
var safeKey = regexp.MustCompile(`^[0-9a-f]{8,128}$`)

// Store is an open result store. It is safe for concurrent use.
type Store struct {
	dir      string
	maxBytes int64 // <= 0: unbounded

	mu    sync.Mutex
	bytes int64
	files map[string]fileInfo // key -> size and write time
}

type fileInfo struct {
	size  int64
	mtime time.Time
}

// Open opens (creating if needed) the store rooted at dir, removes temp
// files left by a crash mid-put, verifies and indexes every record, and
// deletes the ones that fail verification. maxBytes bounds the resident
// size (the oldest records go first); zero or negative means unbounded.
func Open(dir string, maxBytes int64) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: dir, maxBytes: maxBytes, files: make(map[string]fileInfo)}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() {
			continue
		}
		if strings.HasPrefix(name, tmpPrefix) {
			os.Remove(filepath.Join(dir, name))
			continue
		}
		key, ok := strings.CutSuffix(name, ext)
		if !ok || !safeKey.MatchString(key) {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		if _, err := readRecord(dir, key); err != nil {
			os.Remove(filepath.Join(dir, name))
			continue
		}
		s.files[key] = fileInfo{size: info.Size(), mtime: info.ModTime()}
		s.bytes += info.Size()
	}
	s.gcLocked() // a restart may have shrunk the bound; s is not shared yet
	return s, nil
}

// Get returns the stored body for key. With Put it implements engine.Memo.
func (s *Store) Get(key string) ([]byte, bool) {
	r, ok := s.Load(key)
	return r.Body, ok
}

// Put durably records body under key with no content type. With Get it
// implements engine.Memo.
func (s *Store) Put(key string, body []byte) error {
	return s.Save(Record{Key: key, Body: body})
}

// Load reads one record, verifying its checksum. A record that no longer
// verifies is deleted and reported as a miss.
func (s *Store) Load(key string) (Record, bool) {
	s.mu.Lock()
	info, ok := s.files[key]
	s.mu.Unlock()
	if !ok {
		return Record{}, false
	}
	r, err := readRecord(s.dir, key)
	if err != nil {
		s.drop(key, info, !errors.Is(err, os.ErrNotExist))
		return Record{}, false
	}
	return r, true
}

// Save durably writes one record and evicts past the byte bound. It returns
// only after the record and its directory entry are fsync'd. Saving a
// resident key is a no-op, and a record larger than the whole bound is
// never kept.
func (s *Store) Save(r Record) error {
	if !safeKey.MatchString(r.Key) {
		return fmt.Errorf("store: key %q is not a content hash", r.Key)
	}
	s.mu.Lock()
	_, dup := s.files[r.Key]
	s.mu.Unlock()
	if dup {
		return nil
	}
	hdr, err := json.Marshal(header{Key: r.Key, ContentType: r.ContentType, CRC: crc32.ChecksumIEEE(r.Body)})
	if err != nil {
		return err
	}
	record := append(append(hdr, '\n'), r.Body...)
	size := int64(len(record))
	if s.maxBytes > 0 && size > s.maxBytes {
		return nil
	}
	tmp, err := s.writeTemp(record)
	if err != nil {
		return fmt.Errorf("store: put %.16s: %w", r.Key, err)
	}
	defer os.Remove(tmp) // no-op after a successful rename
	// Rename and index under the lock, so eviction never sees a record
	// that is on disk but not indexed, or the reverse.
	s.mu.Lock()
	if _, dup := s.files[r.Key]; !dup {
		if err := os.Rename(tmp, filepath.Join(s.dir, r.Key+ext)); err != nil {
			s.mu.Unlock()
			return fmt.Errorf("store: put %.16s: %w", r.Key, err)
		}
		s.files[r.Key] = fileInfo{size: size, mtime: time.Now()}
		s.bytes += size
		s.gcLocked()
	}
	s.mu.Unlock()
	// The rename is durable once the directory is.
	d, err := os.Open(s.dir)
	if err != nil {
		return fmt.Errorf("store: put %.16s: %w", r.Key, err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("store: put %.16s: %w", r.Key, err)
	}
	return nil
}

// writeTemp writes data to a fresh fsync'd temp file and returns its path.
func (s *Store) writeTemp(data []byte) (string, error) {
	tmp, err := os.CreateTemp(s.dir, tmpPrefix+"*")
	if err != nil {
		return "", err
	}
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp.Name())
		return "", err
	}
	return tmp.Name(), nil
}

// Each calls fn with every resident record, oldest write first — the order
// that leaves the newest results most-recently-used when fn fills an LRU.
// Records that no longer verify are dropped, as in Load.
func (s *Store) Each(fn func(Record)) {
	s.mu.Lock()
	keys := s.oldestFirstLocked()
	s.mu.Unlock()
	for _, key := range keys {
		if r, ok := s.Load(key); ok {
			fn(r)
		}
	}
}

// Stats reports resident records and bytes.
func (s *Store) Stats() (entries int, bytes int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.files), s.bytes
}

// oldestFirstLocked lists resident keys by write time, ties by key.
func (s *Store) oldestFirstLocked() []string {
	keys := make([]string, 0, len(s.files))
	for k := range s.files {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := s.files[keys[i]], s.files[keys[j]]
		if !a.mtime.Equal(b.mtime) {
			return a.mtime.Before(b.mtime)
		}
		return keys[i] < keys[j]
	})
	return keys
}

// gcLocked removes the oldest records until resident bytes fit the bound.
func (s *Store) gcLocked() {
	if s.maxBytes <= 0 || s.bytes <= s.maxBytes {
		return
	}
	for _, key := range s.oldestFirstLocked() {
		if s.bytes <= s.maxBytes {
			return
		}
		os.Remove(filepath.Join(s.dir, key+ext))
		s.bytes -= s.files[key].size
		delete(s.files, key)
	}
}

// drop unindexes a record that failed to read — unless a concurrent Save
// has replaced it since — and deletes the file when it is corrupt rather
// than missing.
func (s *Store) drop(key string, seen fileInfo, corrupt bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cur, ok := s.files[key]; !ok || cur != seen {
		return
	}
	s.bytes -= seen.size
	delete(s.files, key)
	if corrupt {
		os.Remove(filepath.Join(s.dir, key+ext))
	}
}

// Scan reads every record in dir without modifying anything — the audit
// view a separate process takes of a live store. The chaos gate uses it to
// check that a crashed-and-resumed sweep recorded every point exactly
// once. Records come back sorted by key; a record that fails verification
// is an error, and a missing directory is a not-exist error.
func Scan(dir string) ([]Record, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []Record
	for _, e := range entries {
		key, ok := strings.CutSuffix(e.Name(), ext)
		if e.IsDir() || !ok || !safeKey.MatchString(key) {
			continue
		}
		r, err := readRecord(dir, key)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// readRecord parses and verifies one record file: header line, then body,
// checked against the header's key and CRC.
func readRecord(dir, key string) (Record, error) {
	f, err := os.Open(filepath.Join(dir, key+ext))
	if err != nil {
		return Record{}, err
	}
	defer f.Close()
	r := bufio.NewReader(f)
	line, err := r.ReadBytes('\n')
	if err != nil {
		return Record{}, fmt.Errorf("store: %.16s: header: %w", key, err)
	}
	var hdr header
	if err := json.Unmarshal(line, &hdr); err != nil {
		return Record{}, fmt.Errorf("store: %.16s: header: %w", key, err)
	}
	if hdr.Key != key {
		return Record{}, fmt.Errorf("store: %.16s: header names key %q", key, hdr.Key)
	}
	body, err := io.ReadAll(r)
	if err != nil {
		return Record{}, err
	}
	if crc32.ChecksumIEEE(body) != hdr.CRC {
		return Record{}, fmt.Errorf("store: %.16s: body checksum mismatch", key)
	}
	return Record{Key: key, ContentType: hdr.ContentType, Body: body}, nil
}
