package ablsn

import (
	"encoding/binary"
	"slices"

	"github.com/cidr09/unbundled/internal/base"
)

// Table maps each TC that has data on a page to that TC's abstract LSN
// (§6.1.1 "Multiple Abstract LSNs"). Pages with data from only a single TC
// carry only one entry; extra entries appear only on genuinely shared
// pages. The zero value is an empty table.
type Table struct {
	m map[base.TCID]*A
}

// Get returns the abstract LSN for tc, or nil if the TC has no data here.
func (t *Table) Get(tc base.TCID) *A {
	if t.m == nil {
		return nil
	}
	return t.m[tc]
}

// Ensure returns the abstract LSN for tc, creating an empty one if needed.
func (t *Table) Ensure(tc base.TCID) *A {
	if t.m == nil {
		t.m = make(map[base.TCID]*A, 1)
	}
	a := t.m[tc]
	if a == nil {
		a = &A{}
		t.m[tc] = a
	}
	return a
}

// Contains applies the idempotence test for one TC's operation.
func (t *Table) Contains(tc base.TCID, lsn base.LSN) bool {
	a := t.Get(tc)
	return a != nil && a.Contains(lsn)
}

// Advance applies a TC-supplied low-water mark to that TC's entry.
func (t *Table) Advance(tc base.TCID, lwm base.LSN) {
	if a := t.Get(tc); a != nil {
		a.Advance(lwm)
	}
}

// Drop removes tc's entry entirely (partial-failure reset when the disk
// version has no data for the failed TC).
func (t *Table) Drop(tc base.TCID) {
	if t.m != nil {
		delete(t.m, tc)
	}
}

// Set replaces tc's entry with a copy of a (nil drops the entry).
func (t *Table) Set(tc base.TCID, a *A) {
	if a == nil {
		t.Drop(tc)
		return
	}
	t.Ensure(tc).Reset(a)
}

// TCs returns the TCIDs present, sorted (deterministic iteration).
func (t *Table) TCs() []base.TCID {
	if len(t.m) == 0 {
		return nil
	}
	return t.appendTCs(make([]base.TCID, 0, len(t.m)))
}

// appendTCs appends the TCIDs present to dst in ascending order.
func (t *Table) appendTCs(dst []base.TCID) []base.TCID {
	for tc := range t.m {
		dst = append(dst, tc)
	}
	slices.Sort(dst)
	return dst
}

// Each calls fn for every TC's abstract LSN, in no particular order.
func (t *Table) Each(fn func(base.TCID, *A)) {
	for tc, a := range t.m {
		fn(tc, a)
	}
}

// Len returns the number of TCs with entries.
func (t *Table) Len() int { return len(t.m) }

// Clone returns a deep copy.
func (t *Table) Clone() *Table {
	c := &Table{}
	if len(t.m) > 0 {
		c.m = make(map[base.TCID]*A, len(t.m))
		for tc, a := range t.m {
			c.m[tc] = a.Clone()
		}
	}
	return c
}

// MergeMax folds o into t per-TC (page consolidation, §5.2.2).
func (t *Table) MergeMax(o *Table) {
	if o == nil {
		return
	}
	for tc, a := range o.m {
		t.Ensure(tc).MergeMax(a)
	}
}

// MaxApplied returns the highest applied LSN for tc, or 0.
func (t *Table) MaxApplied(tc base.TCID) base.LSN {
	if a := t.Get(tc); a != nil {
		return a.MaxApplied()
	}
	return 0
}

// Append serializes the table deterministically (sorted by TCID). Pages
// rarely carry more than a few TCs, so the sort runs in a stack buffer.
func (t *Table) Append(buf []byte) []byte {
	var stack [4]base.TCID
	tcs := t.appendTCs(stack[:0])
	buf = binary.AppendUvarint(buf, uint64(len(tcs)))
	for _, tc := range tcs {
		buf = binary.AppendUvarint(buf, uint64(tc))
		buf = t.m[tc].Append(buf)
	}
	return buf
}

// DecodeTable parses a table previously produced by Append.
func DecodeTable(buf []byte) (*Table, []byte, error) {
	n, w := binary.Uvarint(buf)
	if w <= 0 {
		return nil, nil, errCorrupt
	}
	buf = buf[w:]
	t := &Table{}
	if n > 0 {
		t.m = make(map[base.TCID]*A, n)
	}
	for i := uint64(0); i < n; i++ {
		u, w := binary.Uvarint(buf)
		if w <= 0 {
			return nil, nil, errCorrupt
		}
		buf = buf[w:]
		a, rest, err := Decode(buf)
		if err != nil {
			return nil, nil, err
		}
		t.m[base.TCID(u)] = a
		buf = rest
	}
	return t, buf, nil
}

// EncodedSize returns the serialized size in bytes, computed without
// encoding.
func (t *Table) EncodedSize() int {
	n := uvarintLen(uint64(len(t.m)))
	for tc, a := range t.m {
		n += uvarintLen(uint64(tc)) + a.EncodedSize()
	}
	return n
}

// InCountTotal sums |{LSNin}| across TCs (page-sync strategy 3 uses this
// to decide when the set is "reduced to a manageable size", §5.1.2).
func (t *Table) InCountTotal() int {
	n := 0
	for _, a := range t.m {
		n += len(a.In)
	}
	return n
}
