package formula

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"dataspread/internal/sheet"
)

// TestParseNeverPanics feeds arbitrary byte soup to the parser: it must
// return (expr, nil) or (nil, error), never panic.
func TestParseNeverPanics(t *testing.T) {
	f := func(src string) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		expr, err := Parse(src)
		if err == nil && expr == nil {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestParsedAlwaysEvaluates: anything that parses must evaluate to some
// value (possibly an error value) without panicking, on an empty resolver.
func TestParsedAlwaysEvaluates(t *testing.T) {
	empty := mapResolver{sheet.New("e")}
	srcs := []string{
		"1", "A1", "A1:B2", "SUM()", "IF(1)", "-(-(-1))", "1%%%%",
		`""&""&""`, "TRUE=FALSE", "#N/A", "SUM(A1:Z1000)",
		"POWER(99,999)", "0^0", "IF(TRUE,A1:B2,1)",
	}
	for _, src := range srcs {
		expr, err := Parse(src)
		if err != nil {
			continue
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("Eval(%q) panicked: %v", src, r)
				}
			}()
			Eval(expr, empty)
		}()
	}
}

// TestShiftNeverPanics: structural rewrites tolerate any parsed expression.
func TestShiftNeverPanics(t *testing.T) {
	f := func(src string, at, count uint8) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		expr, err := Parse(src)
		if err != nil {
			return true
		}
		for _, sh := range []Shift{
			InsertRows(int(at%50)+1, int(count%3)+1),
			DeleteRows(int(at%50)+1, int(count%3)+1),
			InsertCols(int(at%50)+1, 1),
			DeleteCols(int(at%50)+1, 1),
		} {
			out := sh.Apply(expr)
			// The rewritten text must re-parse.
			if _, err := Parse(out.String()); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Error(err)
	}
}

// TestRoundTripProperty: parse -> String -> parse is a fixed point.
func TestRoundTripProperty(t *testing.T) {
	f := func(src string) bool {
		e1, err := Parse(src)
		if err != nil {
			return true
		}
		text := e1.String()
		e2, err := Parse(text)
		if err != nil {
			return false
		}
		return e2.String() == text
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestMultiCountShiftEquivalence: a count-k shift must agree with k
// applications of the corresponding count-1 shift, for both axes and both
// directions, on randomized formulas — and Apply on a parsed AST must agree
// with AdjustText on the source text.
func TestMultiCountShiftEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	srcs := []string{
		"A1+B2*C3",
		"SUM(A1:A20)",
		"SUM(B5:D12)+AVERAGE(A8:A9)",
		"IF(A5>0,SUM(A5:A10),B7)",
		"VLOOKUP(A3,B1:D20,2)",
		"$A$5+A$6+$A7",
		"1+2",
		"SUM(A4:A6)-A5%",
	}
	for trial := 0; trial < 300; trial++ {
		src := srcs[rng.Intn(len(srcs))]
		at := rng.Intn(15) + 1
		k := rng.Intn(5) + 1
		rows := rng.Intn(2) == 0
		del := rng.Intn(2) == 0

		big := func(at, count int) Shift {
			switch {
			case rows && del:
				return DeleteRows(at, count)
			case rows:
				return InsertRows(at, count)
			case del:
				return DeleteCols(at, count)
			default:
				return InsertCols(at, count)
			}
		}
		expr, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		// One count-k application.
		batched := big(at, k).Apply(expr).String()
		// k count-1 applications at the same position.
		cur := expr
		for i := 0; i < k; i++ {
			cur = big(at, 1).Apply(cur)
		}
		looped := cur.String()
		if batched != looped {
			t.Fatalf("%q shift(at=%d,k=%d,rows=%v,del=%v): batched %q vs looped %q",
				src, at, k, rows, del, batched, looped)
		}
		// Text-level agreement.
		adjusted, err := big(at, k).AdjustText(src)
		if err != nil {
			t.Fatal(err)
		}
		if adjusted != batched {
			t.Fatalf("%q: AdjustText %q vs Apply %q", src, adjusted, batched)
		}
	}
}

// fillDownSrcs are the heads the fill-down tests move: relative, $-absolute
// and mixed rows, ranges whose bounds swap once moved far enough (A$5:A1),
// #REF!, and formulas reading nothing.
var fillDownSrcs = []string{
	"A1", "$A$1", "A$1", "$A1", "SUM(A1:P1)", "SUM($A$1:A1)", "SUM(A$1:$B7)+C3*2",
	"IF(A5>0,SUM(A5:A10),-B7%)", `A1&"x""y"`, "#REF!+A2", "1+2", "TRUE", "-(A1+B1)^2",
	"VLOOKUP(A3,$B$1:$D$20,2)", "ROUND(A1/3,2)", "B5:A$1", "SUM(A$5:A1)", "COUNTBLANK(B1:A$9)",
	"SUMIF(A$3:A1,\">2\",B1:B$3)", "AVERAGE(A1:A$1,$C2)",
}

// TestMoveDownAgreesWithText: IsMovedDown(a, b, k) must say exactly what
// comparing MoveDown(a, k)'s text with b's says, on every pair tried — moved
// by the right offset, by a wrong one, and against a different formula — and
// a moved formula's text must parse back to itself (what a fill-down run
// stores is its head's text alone).
func TestMoveDownAgreesWithText(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	srcs := fillDownSrcs
	parse := func(src string) Expr {
		e, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		return e
	}
	for trial := 0; trial < 2000; trial++ {
		a := parse(srcs[rng.Intn(len(srcs))])
		k := rng.Intn(40)
		moved := MoveDown(a, k)
		if !IsMovedDown(a, moved, k) {
			t.Fatalf("%q moved down %d = %q is not recognized", a, k, moved)
		}
		if back := parse(moved.String()); back.String() != moved.String() || !IsMovedDown(a, back, k) {
			t.Fatalf("%q moved down %d = %q parses back to %q", a, k, moved, back)
		}
		// A wrong offset, another formula, or the same one: walk and text agree.
		b, j := moved, k+rng.Intn(3)-1
		if rng.Intn(2) == 0 {
			b = MoveDown(parse(srcs[rng.Intn(len(srcs))]), rng.Intn(3))
		}
		if j < 0 {
			j = 0
		}
		if got, want := IsMovedDown(a, b, j), MoveDown(a, j).String() == b.String(); got != want {
			t.Fatalf("IsMovedDown(%q, %q, %d) = %v, the texts say %v", a, b, j, got, want)
		}
	}
}

// TestEvalAtAgreesWithMoveDown: evaluating a head at offset k is evaluating
// the head moved down k rows, and its reads at k are the moved tree's Refs,
// on every head of fillDownSrcs over a sheet of numbers, text and blanks.
func TestEvalAtAgreesWithMoveDown(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	s := sheet.New("moved")
	for r := 1; r <= 80; r++ {
		for c := 1; c <= 16; c++ {
			switch rng.Intn(6) {
			case 0: // blank
			case 1:
				s.SetValue(r, c, sheet.Str(fmt.Sprint("t", rng.Intn(3))))
			default:
				s.SetValue(r, c, sheet.Number(float64(rng.Intn(20)-5)))
			}
		}
	}
	res := mapResolver{s}
	for _, src := range fillDownSrcs {
		head, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		reads := Reads(head)
		if !slices.Equal(Refs(head), rangesOf(reads)) {
			t.Fatalf("%q: Refs %v, Reads %v", src, Refs(head), reads)
		}
		for k := 0; k < 40; k++ {
			moved := MoveDown(head, k)
			if got, want := EvalAt(head, k, res), Eval(moved, res); !got.Equal(want) {
				t.Fatalf("%q at %d = %v, %q = %v", src, k, got, moved, want)
			}
			at := make([]sheet.Range, len(reads))
			for i, rd := range reads {
				at[i] = rd.At(k)
			}
			if want := Refs(moved); !slices.Equal(at, want) {
				t.Fatalf("%q at %d reads %v, %q reads %v", src, k, at, moved, want)
			}
		}
	}
}

func rangesOf(reads []Read) []sheet.Range {
	var out []sheet.Range
	for _, r := range reads {
		out = append(out, r.Range)
	}
	return out
}
