// Package storage simulates the stable page media under a data component:
// an atomic page store. "Stable" contents survive component crashes;
// everything above storage (the buffer pool) is volatile and lost on
// Crash. This is the substitution for real disks described in DESIGN.md
// §3: it preserves the stable/volatile divide that drives the paper's §5.3
// partial-failure protocols, and it counts I/O so experiments can report
// read/write traffic. The logs live in package wal.
package storage

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/cidr09/unbundled/internal/base"
)

// Stats counts stable-media traffic.
type Stats struct {
	PageReads   uint64
	PageWrites  uint64
	PageFrees   uint64
	BytesRead   uint64
	BytesWriten uint64
}

// PageStore is a crash-safe page store: Write is atomic per page (no torn
// writes — mirroring sector-atomic page writes assumed by the paper's
// recovery protocols). The zero value is not usable; call NewPageStore.
type PageStore struct {
	mu     sync.RWMutex
	pages  map[base.PageID][]byte
	nextID uint32 // persisted allocator; see AllocPageID
	// dir, when nonempty, write-through-backs the store with one file per
	// page so stable contents survive process death (see disk.go).
	dir string

	// WriteDelay simulates media latency per page write (0 = none).
	WriteDelay time.Duration
	// ReadDelay simulates media latency per page read (0 = none).
	ReadDelay time.Duration

	reads, writes, frees, bytesRead, bytesWritten atomic.Uint64
}

// NewPageStore returns an empty page store. Page IDs start at 1; 0 is the
// invalid PageID.
func NewPageStore() *PageStore {
	return &PageStore{pages: make(map[base.PageID][]byte), nextID: 0}
}

// AllocPageID durably allocates a fresh page identifier. Allocation is a
// stable operation: a crash after AllocPageID never reuses the ID, so
// system-transaction redo can recreate pages by ID without collisions.
func (s *PageStore) AllocPageID() base.PageID {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	s.persistAlloc(s.nextID)
	return base.PageID(s.nextID)
}

// NoteAllocated raises the allocator to at least id (used when DC-log
// recovery observes a page image with an ID the allocator has not reached;
// cannot happen with stable allocation but kept as a defensive invariant).
func (s *PageStore) NoteAllocated(id base.PageID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if uint32(id) > s.nextID {
		s.nextID = uint32(id)
	}
}

// Write atomically replaces the stable contents of page id. The data is
// copied; callers may reuse the buffer.
func (s *PageStore) Write(id base.PageID, data []byte) {
	if id == 0 {
		panic("storage: write to invalid page 0")
	}
	if s.WriteDelay > 0 {
		time.Sleep(s.WriteDelay)
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	s.mu.Lock()
	s.pages[id] = cp
	s.persistWrite(id, cp)
	s.mu.Unlock()
	s.writes.Add(1)
	s.bytesWritten.Add(uint64(len(data)))
}

// Read returns a copy of the stable contents of page id, or ok=false if the
// page has never been written (or was freed).
func (s *PageStore) Read(id base.PageID) (data []byte, ok bool) {
	if s.ReadDelay > 0 {
		time.Sleep(s.ReadDelay)
	}
	s.mu.RLock()
	d, ok := s.pages[id]
	s.mu.RUnlock()
	if !ok {
		return nil, false
	}
	cp := make([]byte, len(d))
	copy(cp, d)
	s.reads.Add(1)
	s.bytesRead.Add(uint64(len(d)))
	return cp, true
}

// Exists reports whether the page has stable contents without counting a
// read.
func (s *PageStore) Exists(id base.PageID) bool {
	s.mu.RLock()
	_, ok := s.pages[id]
	s.mu.RUnlock()
	return ok
}

// Free durably removes the page (page delete, §5.2.2). The ID is not
// recycled.
func (s *PageStore) Free(id base.PageID) {
	s.mu.Lock()
	delete(s.pages, id)
	s.persistFree(id)
	s.mu.Unlock()
	s.frees.Add(1)
}

// Len returns the number of stable pages.
func (s *PageStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.pages)
}

// IDs returns all stable page IDs (order unspecified).
func (s *PageStore) IDs() []base.PageID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]base.PageID, 0, len(s.pages))
	for id := range s.pages {
		out = append(out, id)
	}
	return out
}

// Stats returns a snapshot of I/O counters.
func (s *PageStore) Stats() Stats {
	return Stats{
		PageReads:   s.reads.Load(),
		PageWrites:  s.writes.Load(),
		PageFrees:   s.frees.Load(),
		BytesRead:   s.bytesRead.Load(),
		BytesWriten: s.bytesWritten.Load(),
	}
}
