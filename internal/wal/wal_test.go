package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"github.com/cidr09/unbundled/internal/base"
)

// openLog opens the file-backed log at path, failing the test on error.
func openLog(t *testing.T, path string) *Log {
	t.Helper()
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// kinds returns the Kind of each record, to compare logs compactly.
func kinds(recs []*Record) []uint8 {
	out := make([]uint8, len(recs))
	for i, r := range recs {
		out[i] = r.Kind
	}
	return out
}

func TestRecordRoundTrip(t *testing.T) {
	recs := []*Record{
		{LSN: 1, Kind: 2, Txn: 3, Prev: 0, NextUndo: 0, Payload: []byte("hello")},
		{LSN: 1 << 40, Kind: 255, Txn: 1 << 50, Prev: 99, NextUndo: 98},
		{LSN: 7},
	}
	for _, r := range recs {
		buf := append(r.Append(nil), "next"...)
		got, rest, err := DecodeRecord(buf)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !reflect.DeepEqual(r, got) || string(rest) != "next" {
			t.Fatalf("roundtrip: in=%+v out=%+v", r, got)
		}
	}
}

func TestRecordRoundTripQuick(t *testing.T) {
	f := func(lsn uint64, kind uint8, txn, prev, nu uint64, payload []byte) bool {
		r := &Record{LSN: base.LSN(lsn), Kind: kind, Txn: base.TxnID(txn),
			Prev: base.LSN(prev), NextUndo: base.LSN(nu), Payload: payload}
		if len(r.Payload) == 0 {
			r.Payload = nil
		}
		got, rest, err := DecodeRecord(r.Append(nil))
		return err == nil && len(rest) == 0 && reflect.DeepEqual(r, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestRecordDecodeTruncated(t *testing.T) {
	r := &Record{LSN: 123456, Kind: 9, Txn: 7, Payload: bytes.Repeat([]byte("p"), 30)}
	buf := r.Append(nil)
	for i := 0; i < len(buf); i++ {
		if _, _, err := DecodeRecord(buf[:i]); err == nil {
			t.Fatalf("truncation at %d undetected", i)
		}
	}
}

func TestAppendAssignMonotonic(t *testing.T) {
	l := New()
	var lsns []base.LSN
	for i := 0; i < 10; i++ {
		lsns = append(lsns, l.AppendAssign(&Record{Kind: 1}))
		if i%3 == 0 {
			l.AllocLSN() // read IDs create gaps
		}
	}
	for i := 1; i < len(lsns); i++ {
		if lsns[i] <= lsns[i-1] {
			t.Fatalf("LSNs not increasing: %v", lsns)
		}
	}
}

func TestCrashLosesTail(t *testing.T) {
	l := New()
	a := l.AppendAssign(&Record{Kind: 1})
	l.ForceTo(a)
	b := l.AppendAssign(&Record{Kind: 2})
	if l.EOSL() != a {
		t.Fatalf("EOSL = %d want %d", l.EOSL(), a)
	}
	l.Crash()
	if l.LastLSN() != a {
		t.Fatalf("after crash last = %d want %d", l.LastLSN(), a)
	}
	// LSN of the lost record is reused.
	c := l.AppendAssign(&Record{Kind: 3})
	if c != b {
		t.Fatalf("LSN reuse expected: got %d want %d", c, b)
	}
	recs := l.Scan(0)
	if len(recs) != 1 || recs[0].Kind != 1 {
		t.Fatalf("stable scan after crash: %+v", recs)
	}
}

func TestScanOnlyStable(t *testing.T) {
	l := New()
	l.AppendAssign(&Record{Kind: 1})
	l.Force()
	l.AppendAssign(&Record{Kind: 2})
	recs := l.Scan(0)
	if len(recs) != 1 {
		t.Fatalf("scan saw volatile records: %d", len(recs))
	}
	l.Force()
	if got := len(l.Scan(0)); got != 2 {
		t.Fatalf("after force scan = %d", got)
	}
	if got := len(l.Scan(2)); got != 1 {
		t.Fatalf("scan(2) = %d", got)
	}
}

func TestRecoverFromMedia(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	l := openLog(t, path)
	l.AppendAssign(&Record{Kind: 1, Payload: []byte("x")})
	l.AppendAssign(&Record{Kind: 2})
	l.Force()
	l.AppendAssign(&Record{Kind: 3}) // lost: the process dies unforced

	l2 := openLog(t, path)
	if l2.EOSL() != 2 || l2.LastLSN() != 2 {
		t.Fatalf("recovered eosl=%d last=%d", l2.EOSL(), l2.LastLSN())
	}
	if next := l2.AppendAssign(&Record{Kind: 4}); next != 3 {
		t.Fatalf("allocation after recovery = %d want 3", next)
	}
}

func TestTruncate(t *testing.T) {
	l := New()
	for i := 0; i < 5; i++ {
		l.AppendAssign(&Record{Kind: uint8(i)})
	}
	l.Force()
	l.Truncate(3)
	recs := l.Scan(0)
	if len(recs) != 3 || recs[0].LSN != 3 {
		t.Fatalf("after truncate: %d recs first=%v", len(recs), recs[0])
	}
	if l.StartLSN() != 3 {
		t.Fatalf("StartLSN = %d", l.StartLSN())
	}
	// Truncate is idempotent and ignores lower bounds.
	l.Truncate(2)
	if len(l.Scan(0)) != 3 {
		t.Fatal("backwards truncate changed the log")
	}
}

func TestGet(t *testing.T) {
	l := New()
	l.AppendAssign(&Record{Kind: 1})
	l.AllocLSN()
	l.AppendAssign(&Record{Kind: 3})
	if r := l.Get(1); r == nil || r.Kind != 1 {
		t.Fatalf("Get(1) = %+v", r)
	}
	if r := l.Get(2); r != nil {
		t.Fatalf("Get(2) should be nil (read id), got %+v", r)
	}
	if r := l.Get(3); r == nil || r.Kind != 3 {
		t.Fatalf("Get(3) = %+v", r)
	}
}

func TestConcurrentAppendForce(t *testing.T) {
	l := New()
	const goroutines = 8
	const perG = 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				lsn := l.AppendAssign(&Record{Kind: 1, Txn: base.TxnID(g)})
				if i%10 == 0 {
					l.ForceTo(lsn)
				}
			}
		}(g)
	}
	wg.Wait()
	l.Force()
	recs := l.Scan(0)
	if len(recs) != goroutines*perG {
		t.Fatalf("lost records: %d", len(recs))
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].LSN <= recs[i-1].LSN {
			t.Fatalf("stable log out of order at %d", i)
		}
	}
}

func TestGroupForce(t *testing.T) {
	l := New()
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lsn := l.AppendAssign(&Record{Kind: 1})
			l.ForceTo(lsn)
			if l.EOSL() < lsn {
				t.Errorf("ForceTo returned before stability: eosl=%d lsn=%d", l.EOSL(), lsn)
			}
		}()
	}
	wg.Wait()
}

// TestGroupForceCounts checks that every ForceTo call counts once: as a
// force of its own or as a no-op covered by a neighbour's force.
func TestGroupForceCounts(t *testing.T) {
	l := New()
	l.ForceDelay = 2 * time.Millisecond
	const committers = 16
	var appended, done sync.WaitGroup
	appended.Add(committers)
	for g := 0; g < committers; g++ {
		done.Add(1)
		go func() {
			defer done.Done()
			lsn := l.AppendAssign(&Record{Kind: 1})
			appended.Done()
			appended.Wait()
			l.ForceTo(lsn)
		}()
	}
	done.Wait()
	if got := l.Forces() + l.NoopForces(); got != committers {
		t.Fatalf("Forces()+NoopForces() = %d+%d, want %d ForceTo calls", l.Forces(), l.NoopForces(), committers)
	}
	if l.NoopForces() == 0 {
		t.Fatalf("no committer was covered by a neighbour's force (forces=%d)", l.Forces())
	}
}

func TestAppendAssignAllocs(t *testing.T) {
	l := New()
	payload := bytes.Repeat([]byte("x"), 64)
	recs := make([]Record, 2000)
	for i := range recs {
		recs[i] = Record{Kind: 1, Txn: 7, Payload: payload}
	}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		l.AppendAssign(&recs[i])
		i++
	})
	if allocs != 0 {
		t.Fatalf("AppendAssign allocates %v times per call, want 0", allocs)
	}
}

// retainedPerRecord appends n records with 48-byte payloads to l, forcing
// every forceEvery appends and once at the end, and returns the heap bytes
// still held per record afterwards.
func retainedPerRecord(l *Log, n, forceEvery int) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		l.AppendAssign(&Record{Kind: 1, Txn: base.TxnID(i), Payload: make([]byte, 48)})
		if (i+1)%forceEvery == 0 {
			l.Force()
		}
	}
	l.Force()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(l)
	return float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(n)
}

// TestRetainedBytesPerRecord bounds the heap a retained record costs: the
// decoded record and its payload, with no second encoded copy. The
// file-backed case forces once, after all the appends, so the whole tail
// buffer passes through one force and must not stay pinned.
func TestRetainedBytesPerRecord(t *testing.T) {
	const n, limit = 200_000, 130
	for _, tc := range []struct {
		name       string
		open       func() *Log
		forceEvery int
	}{
		{"mem/force-every-16", New, 16},
		{"file/one-force", func() *Log { return openLog(t, filepath.Join(t.TempDir(), "wal")) }, n},
	} {
		per := retainedPerRecord(tc.open(), n, tc.forceEvery)
		t.Logf("%s: %.1f B retained per record", tc.name, per)
		if per > limit {
			t.Errorf("%s: %.1f B retained per record, want <= %d", tc.name, per, limit)
		}
	}
}

func TestLogForceCrash(t *testing.T) {
	l := New()
	l.AppendAssign(&Record{Kind: 'a'})
	l.AppendAssign(&Record{Kind: 'b'})
	if l.EOSL() != 0 || len(l.Scan(0)) != 0 {
		t.Fatal("nothing forced yet")
	}
	l.Force()
	l.AppendAssign(&Record{Kind: 'c'})
	l.Crash()
	if l.LastLSN() != 2 || l.EOSL() != 2 {
		t.Fatalf("after crash last=%d eosl=%d", l.LastLSN(), l.EOSL())
	}
	if got := kinds(l.Scan(0)); string(got) != "ab" {
		t.Fatalf("scan = %q", got)
	}
	if l.Get(3) != nil {
		t.Fatal("crashed tail record still reachable")
	}
}

func TestLogTruncateAndScan(t *testing.T) {
	l := New()
	for _, k := range "abcd" {
		l.AppendAssign(&Record{Kind: uint8(k)})
	}
	l.Force()
	l.AppendAssign(&Record{Kind: 'e'}) // volatile: truncation leaves it alone
	l.Truncate(3)
	if l.StartLSN() != 3 {
		t.Fatalf("start = %d", l.StartLSN())
	}
	if got := kinds(l.Scan(0)); string(got) != "cd" {
		t.Fatalf("scan = %q", got)
	}
	if got := l.Scan(99); len(got) != 0 {
		t.Fatalf("scan past end = %v", got)
	}
	l.Truncate(99) // stops at the stable end
	if r := l.Get(5); r == nil || r.Kind != 'e' {
		t.Fatalf("truncation discarded a volatile record: %+v", r)
	}
	if lsn := l.AppendAssign(&Record{Kind: 'f'}); lsn != 6 {
		t.Fatalf("append after truncate got LSN %d", lsn)
	}
}

func TestLogFileReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	l := openLog(t, path)
	l.AppendAssign(&Record{Kind: 0, Payload: []byte("r0")})
	l.AppendAssign(&Record{Kind: 1, Payload: []byte("r1")})
	l.Force()
	l.AppendAssign(&Record{Kind: 2, Payload: []byte("unforced")}) // must not survive

	r := openLog(t, path)
	recs := r.Scan(0)
	if len(recs) != 2 || string(recs[0].Payload) != "r0" || string(recs[1].Payload) != "r1" {
		t.Fatalf("reopened records: %+v", recs)
	}
	// Allocation resumes just above the stable end, and the new record
	// survives another cycle through a truncation.
	if lsn := r.AppendAssign(&Record{Kind: 2, Payload: []byte("r2")}); lsn != 3 {
		t.Fatalf("append after reopen got LSN %d", lsn)
	}
	r.Force()
	r.Truncate(3)

	r2 := openLog(t, path)
	if r2.StartLSN() != 3 {
		t.Fatalf("start after truncate+reopen = %d", r2.StartLSN())
	}
	recs = r2.Scan(0)
	if len(recs) != 1 || string(recs[0].Payload) != "r2" {
		t.Fatalf("records after truncate+reopen: %+v", recs)
	}
}

func TestLogFileBoundSurvivesFullTruncation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	l := openLog(t, path)
	for i := 0; i < 5; i++ {
		l.AppendAssign(&Record{Kind: uint8(i)})
	}
	l.Force()
	l.Truncate(6) // discard everything

	r := openLog(t, path)
	if n := len(r.Scan(0)); n != 0 {
		t.Fatalf("records survived full truncation: %d", n)
	}
	if r.EOSL() != 5 {
		t.Fatalf("EOSL after full truncation + reopen = %d, want 5", r.EOSL())
	}
	if lsn := r.AppendAssign(&Record{Kind: 9}); lsn != 6 {
		t.Fatalf("allocation after full truncation + reopen = %d, want 6", lsn)
	}
}

func TestLogFileTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	l := openLog(t, path)
	l.AppendAssign(&Record{Kind: 1, Payload: []byte("whole")})
	l.Force()
	// A kill mid-append can leave a torn final record in the file; the
	// reopen must keep everything before it.
	torn := (&Record{LSN: 2, Kind: 2, Payload: []byte("torn")}).Append(nil)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn[:len(torn)-1]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	r := openLog(t, path)
	if got := r.Scan(0); len(got) != 1 || string(got[0].Payload) != "whole" {
		t.Fatalf("records after torn tail: %+v", got)
	}
	// The torn bytes must not linger between old and new records: append,
	// force, and reopen once more.
	r.AppendAssign(&Record{Kind: 3, Payload: []byte("after-torn")})
	r.Force()
	got := openLog(t, path).Scan(0)
	if len(got) != 2 || string(got[1].Payload) != "after-torn" {
		t.Fatalf("records after append-past-torn reopen: %+v", got)
	}
}

// TestOpenRejectsDisorderedLSNs: a file whose record LSNs do not strictly
// increase above the header bound would make allocation resume below an
// LSN already in the log.
func TestOpenRejectsDisorderedLSNs(t *testing.T) {
	for name, img := range map[string][]byte{
		"repeated LSN": appendImage(nil, 0, []*Record{{LSN: 2}, {LSN: 2}}),
		"falling LSN":  appendImage(nil, 0, []*Record{{LSN: 3}, {LSN: 2}}),
		"LSN at bound": appendImage(nil, 4, []*Record{{LSN: 4}}),
		"LSN below it": appendImage(nil, 4, []*Record{{LSN: 5}, {LSN: 1}}),
		"not a log":    []byte("0123456789abcdefgh"),
		"short header": []byte(magic),
		"empty file":   nil,
	} {
		path := filepath.Join(t.TempDir(), "wal")
		if err := os.WriteFile(path, img, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(path); err == nil {
			t.Errorf("%s: Open accepted the file", name)
		}
	}
}

// TestFileAppendForceTruncateConcurrent runs appends, forces and
// truncations on a file-backed log at once, then checks that a reopen
// holds exactly the stable records.
func TestFileAppendForceTruncateConcurrent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	l := openLog(t, path)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				lsn := l.AppendAssign(&Record{Kind: uint8(g), Payload: []byte{byte(i)}})
				if i%7 == 0 {
					l.ForceTo(lsn)
				}
			}
		}(g)
	}
	truncated := make(chan struct{})
	go func() {
		defer close(truncated)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if e := l.EOSL(); e > 20 {
				l.Truncate(e - 20)
			}
			runtime.Gosched()
		}
	}()
	wg.Wait()
	close(stop)
	<-truncated
	l.Force()
	want := l.Scan(0)
	got := openLog(t, path).Scan(0)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("reopen holds %d records, the log %d", len(got), len(want))
	}
}

func FuzzLogImage(f *testing.F) {
	recs := []*Record{
		{LSN: 4, Kind: 1, Txn: 9, Payload: []byte("op")},
		{LSN: 5, Kind: 2, Txn: 9, Prev: 4},
		{LSN: 7, Kind: 3, Txn: 9, Prev: 5, NextUndo: 4, Payload: bytes.Repeat([]byte("p"), 40)},
	}
	img := appendImage(nil, 3, recs)
	f.Add(img)
	f.Add(img[:len(img)-5]) // torn final record
	f.Add(appendImage(nil, 3, nil))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		bound, recs, clean, err := parseImage(data)
		if err != nil {
			return
		}
		if clean < headerLen || clean > len(data) {
			t.Fatalf("clean prefix %d outside [%d, %d]", clean, headerLen, len(data))
		}
		prev := bound
		for _, r := range recs {
			if r.LSN <= prev {
				t.Fatalf("record LSN %d not above %d", r.LSN, prev)
			}
			prev = r.LSN
			got, rest, err := DecodeRecord(r.Append(nil))
			if err != nil || len(rest) != 0 || !reflect.DeepEqual(got, r) {
				t.Fatalf("round trip: %+v -> %+v, %d left, %v", r, got, len(rest), err)
			}
		}
		// The clean prefix holds exactly the parsed records.
		if b, again, n, err := parseImage(data[:clean]); err != nil || b != bound || n != clean || !reflect.DeepEqual(again, recs) {
			t.Fatalf("reparsing the clean prefix: bound %d, %d records, clean %d, %v", b, len(again), n, err)
		}
	})
}

func BenchmarkAppend(b *testing.B) {
	l := New()
	payload := bytes.Repeat([]byte("x"), 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.AppendAssign(&Record{Kind: 1, Payload: payload})
	}
}

// BenchmarkGroupForce measures group commit: with a simulated fsync
// latency, forces per commit fall as concurrent committers rise.
func BenchmarkGroupForce(b *testing.B) {
	for _, conc := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("conc=%d", conc), func(b *testing.B) {
			l := New()
			l.ForceDelay = 100 * time.Microsecond
			b.SetParallelism(conc)
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					lsn := l.AppendAssign(&Record{Kind: 1})
					l.ForceTo(lsn)
				}
			})
			b.ReportMetric(float64(l.Forces())/float64(b.N), "forces/op")
		})
	}
}
