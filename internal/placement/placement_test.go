package placement

import (
	"errors"
	"hash/fnv"
	"strings"
	"testing"

	"github.com/cidr09/unbundled/internal/base"
)

// TestCanonicalRoundTrip: ParsePlacement(s).String() is the canonical
// form — messy-but-equivalent inputs all print it, and it is a fixpoint
// of Parse∘String (the acceptance-criterion property).
func TestCanonicalRoundTrip(t *testing.T) {
	cases := []struct{ in, canon string }{
		{"kv: dc=hash(2) owner=hash(2)", "kv: dc=hash(2) owner=hash(2)"},
		{" kv :  dc=hash(2)   owner=hash(2) ;", "kv: dc=hash(2) owner=hash(2)"},
		{"b: dc=1\na: dc=0", "a: dc=0 owner=any; b: dc=1 owner=any"},
		{"*: dc=hash(4); kv: owner=3", "kv: dc=0 owner=3; *: dc=hash(4) owner=any"},
		{"kv: dc=range(<g:0, <p:1, *:2) owner=range(<m:1,*:2)",
			"kv: dc=range(<g:0,<p:1,*:2) owner=range(<m:1,*:2)"},
		{"u: dc=mod(2-3) owner=mod2(2)", "u: dc=mod(2-3) owner=mod2(2)"},
		{"u: dc=hash(0-1) owner=hash(1-2)", "u: dc=hash(2) owner=hash(2)"},
		{"u: dc=hash(2-5) owner=hash(2-3)", "u: dc=hash(2-5) owner=hash(2-3)"},
		{"kv: dc=hash(2) owner=range(<w2:1,*:2)", "kv: dc=hash(2) owner=range(<w2:1,*:2)"},
	}
	for _, c := range cases {
		p, err := Parse(c.in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.in, err)
		}
		if got := p.String(); got != c.canon {
			t.Fatalf("Parse(%q).String() = %q, want %q", c.in, got, c.canon)
		}
		// Fixpoint: parsing the canonical form reproduces it.
		p2, err := Parse(p.String())
		if err != nil {
			t.Fatalf("reparse canonical %q: %v", p.String(), err)
		}
		if p2.String() != c.canon {
			t.Fatalf("canonical not a fixpoint: %q -> %q", c.canon, p2.String())
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, spec := range []string{
		"",                            // empty
		"   ;  \n ",                   // effectively empty
		"kv dc=0",                     // no colon
		"kv: dc",                      // no '='
		"kv: zone=3",                  // unknown axis name
		"kv: dc=0 dc=1",               // duplicate axis
		"kv: dc=0; kv: dc=1",          // duplicate table
		"kv: dc=any",                  // any is owner-only
		"kv: owner=0",                 // owner IDs are 1-based
		"kv: dc=-1",                   // negative target
		"kv: dc=hash(0)",              // empty span
		"kv: owner=hash(0-2)",         // owner span below base
		"kv: dc=hash(5-3)",            // descending span
		"kv: dc=range(<b:0)",          // no catch-all
		"kv: dc=range(*:0,<b:1)",      // catch-all not last
		"kv: dc=range(<b:0,<a:1,*:2)", // descending keys
		"kv: dc=range(<a:0,<a:1,*:2)", // duplicate key
		"kv: dc=range(*:0,*:1)",       // duplicate catch-all
		"kv: dc=bogus(2)",             // unknown axis kind
		"kv: dc=range(a:0,*:1)",       // entry without < or *
		"kv: owner=range(<a:0,*:1)",   // owner target below base
		"k v: dc=0",                   // table name with space
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q): expected error", spec)
		}
	}
}

func TestLookups(t *testing.T) {
	p := MustParse("kv: dc=hash(2) owner=range(<w2:1,*:2); idx: dc=1 owner=mod(2); rev: dc=mod(3) owner=mod2(2)")

	// hash axis matches FNV-32a of the whole key (the data axis
	// unbundled-tc derives when -placement is empty).
	h := fnv.New32a()
	h.Write([]byte("w1-000001-0"))
	wantDC := int(h.Sum32() % 2)
	if dc, err := p.DC("kv", "w1-000001-0"); err != nil || dc != wantDC {
		t.Fatalf("DC(kv) = %d, %v; want %d", dc, err, wantDC)
	}
	// range ownership: "w1..." < "w2" -> TC 1; "w2..." -> TC 2.
	if o, _ := p.Owner("kv", "w1-000001-0"); o != 1 {
		t.Fatalf("Owner(w1...) = %d, want 1", o)
	}
	if o, _ := p.Owner("kv", "w2-000001-0"); o != 2 {
		t.Fatalf("Owner(w2...) = %d, want 2", o)
	}
	// mod: first digit run, 1-based owner IDs.
	if o, _ := p.Owner("idx", "u000007/m000002"); o != base.TCID(1+7%2) {
		t.Fatalf("mod owner = %d", o)
	}
	// mod2: second digit run.
	if o, _ := p.Owner("rev", "m000003/u000007"); o != base.TCID(1+7%2) {
		t.Fatalf("mod2 owner = %d", o)
	}
	if dc, _ := p.DC("rev", "m000004/u000007"); dc != 4%3 {
		t.Fatalf("mod dc = %d", dc)
	}
	// A key with a single digit run: mod2 falls back to that run.
	if o, _ := p.Owner("rev", "m000005"); o != base.TCID(1+5%2) {
		t.Fatalf("mod2 single-run owner = %d", o)
	}
}

func TestUnknownTableTyped(t *testing.T) {
	p := MustParse("kv: dc=0")
	if _, err := p.DC("nope", "k"); !errors.Is(err, base.ErrUnknownTable) {
		t.Fatalf("DC(unknown) = %v, want ErrUnknownTable", err)
	}
	if _, err := p.Owner("nope", "k"); !errors.Is(err, base.ErrUnknownTable) {
		t.Fatalf("Owner(unknown) = %v, want ErrUnknownTable", err)
	}
	// A "*" catch-all opts into the fall-through explicitly.
	pc := MustParse("kv: dc=1; *: dc=0 owner=3")
	if dc, err := pc.DC("nope", "k"); err != nil || dc != 0 {
		t.Fatalf("catch-all DC = %d, %v", dc, err)
	}
	if o, err := pc.Owner("nope", "k"); err != nil || o != 3 {
		t.Fatalf("catch-all Owner = %d, %v", o, err)
	}
}

func TestValidate(t *testing.T) {
	p := MustParse("kv: dc=hash(2) owner=hash(2)")
	if err := p.Validate(2, 2); err != nil {
		t.Fatalf("Validate(2,2): %v", err)
	}
	if err := p.Validate(1, 2); err == nil {
		t.Fatal("dc axis beyond deployment accepted")
	}
	if err := p.Validate(2, 1); err == nil {
		t.Fatal("owner axis beyond fleet accepted")
	}
	if err := MustParse("kv: dc=range(<a:0,*:3)").Validate(3, 1); err == nil {
		t.Fatal("range target beyond deployment accepted")
	}
	if err := MustParse("*: dc=5").Validate(5, 1); err == nil {
		t.Fatal("catch-all target beyond deployment accepted")
	}
	// "any" ownership validates against any fleet size.
	if err := MustParse("kv: dc=0 owner=any").Validate(1, 0); err != nil {
		t.Fatalf("owner=any: %v", err)
	}
}

func TestHashBuilder(t *testing.T) {
	p := Hash([]string{"b", "a"}, 3, 2)
	if got, want := p.String(), "a: dc=hash(3) owner=hash(2); b: dc=hash(3) owner=hash(2)"; got != want {
		t.Fatalf("Hash builder canonical = %q, want %q", got, want)
	}
	if tables := p.Tables(); strings.Join(tables, ",") != "a,b" {
		t.Fatalf("Tables() = %v", tables)
	}
	if err := p.Validate(3, 2); err != nil {
		t.Fatal(err)
	}
}

// TestDigitRun pins the key-shape contract the mod/mod2 axes rely on.
func TestDigitRun(t *testing.T) {
	cases := []struct {
		key  string
		n    int
		want int
	}{
		{"key00000042", 1, 42},
		{"m000003/u000007", 1, 3},
		{"m000003/u000007", 2, 7},
		{"u000007", 2, 7}, // fewer runs: last one
		{"nodigits", 1, 0},
		{"", 1, 0},
		{"a1b2c3", 3, 3},
	}
	for _, c := range cases {
		if got := digitRun(c.key, c.n); got != c.want {
			t.Errorf("digitRun(%q, %d) = %d, want %d", c.key, c.n, got, c.want)
		}
	}
}
