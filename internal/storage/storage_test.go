package storage

import (
	"bytes"
	"sync"
	"testing"

	"github.com/cidr09/unbundled/internal/base"
)

func TestPageStoreBasics(t *testing.T) {
	s := NewPageStore()
	id := s.AllocPageID()
	if id == 0 {
		t.Fatal("page 0 must never be allocated")
	}
	if _, ok := s.Read(id); ok {
		t.Fatal("unwritten page must not exist")
	}
	s.Write(id, []byte("hello"))
	got, ok := s.Read(id)
	if !ok || !bytes.Equal(got, []byte("hello")) {
		t.Fatalf("read = %q ok=%v", got, ok)
	}
	// Write copies: mutating the source must not affect stable contents.
	src := []byte("abc")
	s.Write(id, src)
	src[0] = 'z'
	got, _ = s.Read(id)
	if !bytes.Equal(got, []byte("abc")) {
		t.Fatal("store aliased caller buffer")
	}
	// Read copies too.
	got[0] = 'q'
	got2, _ := s.Read(id)
	if !bytes.Equal(got2, []byte("abc")) {
		t.Fatal("read aliased stable buffer")
	}
	s.Free(id)
	if s.Exists(id) {
		t.Fatal("freed page still exists")
	}
}

func TestPageStoreAllocatorNeverReuses(t *testing.T) {
	s := NewPageStore()
	seen := map[base.PageID]bool{}
	for i := 0; i < 1000; i++ {
		id := s.AllocPageID()
		if seen[id] {
			t.Fatalf("page ID %d reused", id)
		}
		seen[id] = true
	}
	s.NoteAllocated(5000)
	if id := s.AllocPageID(); id <= 5000 {
		t.Fatalf("NoteAllocated not honored: %d", id)
	}
}

func TestPageStoreConcurrent(t *testing.T) {
	s := NewPageStore()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				id := s.AllocPageID()
				s.Write(id, []byte{byte(id)})
				d, ok := s.Read(id)
				if !ok || d[0] != byte(id) {
					t.Errorf("lost page %d", id)
					return
				}
			}
		}()
	}
	wg.Wait()
	if s.Len() != 800 {
		t.Fatalf("len = %d", s.Len())
	}
	st := s.Stats()
	if st.PageWrites != 800 || st.PageReads != 800 {
		t.Fatalf("stats = %+v", st)
	}
}
