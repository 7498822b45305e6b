package storage

import (
	"os"
	"path/filepath"
	"testing"

	"github.com/cidr09/unbundled/internal/base"
)

func TestPageStoreDirReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenPageStoreDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	id1 := s.AllocPageID()
	id2 := s.AllocPageID()
	s.Write(id1, []byte("page-one"))
	s.Write(id2, []byte("page-two"))
	s.Write(id2, []byte("page-two-v2"))
	id3 := s.AllocPageID() // allocated, never written: must not be reused
	s.Free(id1)

	// A new incarnation (the store object is simply dropped — a kill never
	// runs destructors) sees exactly the renamed state.
	r, err := OpenPageStoreDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Read(id1); ok {
		t.Fatal("freed page survived reopen")
	}
	if data, ok := r.Read(id2); !ok || string(data) != "page-two-v2" {
		t.Fatalf("page 2 after reopen: %q ok=%v", data, ok)
	}
	if next := r.AllocPageID(); next <= id3 {
		t.Fatalf("allocator reused id: got %d, previously allocated %d", next, id3)
	}
}

func TestPageStoreDirCleansTornTmp(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenPageStoreDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	id := s.AllocPageID()
	s.Write(id, []byte("good"))
	// Simulate a kill mid-rename: a stray tmp file next to the real page.
	if err := os.WriteFile(filepath.Join(dir, "p999.tmp"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := OpenPageStoreDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if data, ok := r.Read(id); !ok || string(data) != "good" {
		t.Fatalf("page after torn-tmp reopen: %q ok=%v", data, ok)
	}
	if _, err := os.Stat(filepath.Join(dir, "p999.tmp")); !os.IsNotExist(err) {
		t.Fatal("torn tmp file not cleaned up")
	}
	if r.Exists(base.PageID(999)) {
		t.Fatal("torn tmp surfaced as a page")
	}
}
