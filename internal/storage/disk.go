package storage

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"github.com/cidr09/unbundled/internal/base"
)

// Disk-backed page store. The in-memory PageStore simulates stable
// storage for tests and experiments; a standalone DC process
// (cmd/unbundled-dc) needs the real thing, or a SIGKILL would take the
// "stable" half of the §5.3 failure model down with the volatile half.
// The store gains an optional write-through backing: reads stay in memory
// (the map is an exact image of the directory), every stable mutation also
// lands in the filesystem, and OpenPageStoreDir rebuilds the image from a
// previous incarnation's files.
//
// Durability posture: page writes go through atomic tmp+rename, which
// survives process kills unconditionally (the page cache belongs to the
// OS, not the process) — the same contract the simulated Crash() models.
//
// The store's mutation methods have no error returns (they model media
// that either works or is gone); an I/O failure on the backing directory
// is therefore fatal — the process dies and the failure becomes an
// ordinary DC crash for the rest of the deployment.

// OpenPageStoreDir returns a PageStore backed by dir, loading any pages a
// previous incarnation left there. Page files are named p<id>; the
// allocator high-water mark persists in "alloc" so crashed allocations
// are never reused.
func OpenPageStoreDir(dir string) (*PageStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := NewPageStore()
	s.dir = dir
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") {
			os.Remove(filepath.Join(dir, name)) // torn write from a kill
			continue
		}
		if !strings.HasPrefix(name, "p") {
			continue
		}
		id, err := strconv.ParseUint(name[1:], 10, 32)
		if err != nil {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		s.pages[base.PageID(id)] = data
		if uint32(id) > s.nextID {
			s.nextID = uint32(id)
		}
	}
	if data, err := os.ReadFile(filepath.Join(dir, "alloc")); err == nil {
		if n, err := strconv.ParseUint(strings.TrimSpace(string(data)), 10, 32); err == nil && uint32(n) > s.nextID {
			s.nextID = uint32(n)
		}
	}
	return s, nil
}

func (s *PageStore) pagePath(id base.PageID) string {
	return filepath.Join(s.dir, fmt.Sprintf("p%d", uint32(id)))
}

// WriteFileAtomic writes data to path via a tmp file and rename, so a kill
// mid-write never leaves a torn file. With sync, the tmp file is fsynced
// before the rename.
func WriteFileAtomic(path string, data []byte, sync bool) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if sync {
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// ResetForFormat clears the allocator of an empty store. A kill between
// a format's first allocation and its first page write leaves a persisted
// allocator with zero pages; the next incarnation re-formats from
// scratch, so the stale allocator must go or the format's well-known
// page-ID assumptions break forever. Refuses (loudly) on a non-empty
// store — formatting over data is never intended.
func (s *PageStore) ResetForFormat() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.pages) > 0 {
		panic(fmt.Sprintf("storage: allocator reset on a store holding %d pages", len(s.pages)))
	}
	s.nextID = 0
	s.persistAlloc(0)
}

// persistWrite mirrors a page write into the backing directory. It runs
// under the store's write lock deliberately: file rename order must match
// map update order per page, or a reopen could resurrect an older version
// of a page whose newer write was already acknowledged. Page writes are
// off the commit hot path (flushes and SMO forces), so consistency wins
// over concurrency here; the log (package wal), which *is* on the commit
// path, runs its I/O outside its mutex instead.
func (s *PageStore) persistWrite(id base.PageID, data []byte) {
	if s.dir == "" {
		return
	}
	if err := WriteFileAtomic(s.pagePath(id), data, false); err != nil {
		panic(fmt.Sprintf("storage: page %d write to %s: %v", id, s.dir, err))
	}
}

func (s *PageStore) persistFree(id base.PageID) {
	if s.dir == "" {
		return
	}
	if err := os.Remove(s.pagePath(id)); err != nil && !os.IsNotExist(err) {
		panic(fmt.Sprintf("storage: page %d free in %s: %v", id, s.dir, err))
	}
}

func (s *PageStore) persistAlloc(next uint32) {
	if s.dir == "" {
		return
	}
	if err := WriteFileAtomic(filepath.Join(s.dir, "alloc"), []byte(strconv.FormatUint(uint64(next), 10)), false); err != nil {
		panic(fmt.Sprintf("storage: allocator persist in %s: %v", s.dir, err))
	}
}
