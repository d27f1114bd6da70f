package sheet

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates the value types a cell can hold.
type Kind uint8

const (
	// KindEmpty marks an unfilled cell (the zero Value).
	KindEmpty Kind = iota
	// KindNumber is a float64 numeric value.
	KindNumber
	// KindString is a text value.
	KindString
	// KindBool is a boolean value.
	KindBool
	// KindError is a spreadsheet error value such as #DIV/0!.
	KindError
)

// String names the kind for diagnostics.
func (k Kind) String() string {
	switch k {
	case KindEmpty:
		return "empty"
	case KindNumber:
		return "number"
	case KindString:
		return "string"
	case KindBool:
		return "bool"
	case KindError:
		return "error"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Value is a typed spreadsheet value. The zero Value is the empty cell.
type Value struct {
	kind Kind
	num  float64 // number, or bool as 0/1
	str  string  // string, or error code text
}

// Empty is the empty cell value.
var Empty = Value{}

// Number returns a numeric value.
func Number(f float64) Value { return Value{kind: KindNumber, num: f} }

// String returns a text value.
func Str(s string) Value { return Value{kind: KindString, str: s} }

// Bool returns a boolean value.
func Bool(b bool) Value {
	if b {
		return Value{kind: KindBool, num: 1}
	}
	return Value{kind: KindBool}
}

// Errorf returns a spreadsheet error value with the given code, e.g.
// "#DIV/0!" or "#REF!".
func Errorf(code string) Value { return Value{kind: KindError, str: code} }

// Common spreadsheet error values.
var (
	ErrDiv0  = Errorf("#DIV/0!")
	ErrRef   = Errorf("#REF!")
	ErrValue = Errorf("#VALUE!")
	ErrName  = Errorf("#NAME?")
	ErrNA    = Errorf("#N/A")
	ErrCycle = Errorf("#CYCLE!")
)

// ValueOf composes a value from its raw parts, unchecked: Parts' inverse.
func ValueOf(k Kind, num float64, str string) Value { return Value{kind: k, num: num, str: str} }

// Parts returns the raw kind, number (a bool as 0/1) and text (string or error code).
func (v Value) Parts() (Kind, float64, string) { return v.kind, v.num, v.str }

// Kind reports the value's type.
func (v Value) Kind() Kind { return v.kind }

// IsEmpty reports whether the value is the empty cell.
func (v Value) IsEmpty() bool { return v.kind == KindEmpty }

// IsError reports whether the value is a spreadsheet error.
func (v Value) IsError() bool { return v.kind == KindError }

// Num returns the numeric content. Bools convert to 0/1; empty to 0.
// The second return is false when the value has no numeric interpretation.
func (v Value) Num() (float64, bool) {
	switch v.kind {
	case KindNumber, KindBool:
		return v.num, true
	case KindEmpty:
		return 0, true
	case KindString:
		f, err := strconv.ParseFloat(strings.TrimSpace(v.str), 64)
		if err != nil {
			return 0, false
		}
		return f, true
	}
	return 0, false
}

// Text returns the textual content of the value.
func (v Value) Text() string {
	switch v.kind {
	case KindEmpty:
		return ""
	case KindNumber:
		return formatNumber(v.num)
	case KindString:
		return v.str
	case KindBool:
		if v.num != 0 {
			return "TRUE"
		}
		return "FALSE"
	case KindError:
		return v.str
	}
	return ""
}

// BoolVal returns the boolean interpretation (nonzero numbers are true;
// "TRUE"/"FALSE" strings convert). The second return is false when the value
// cannot be interpreted as a boolean.
func (v Value) BoolVal() (bool, bool) {
	switch v.kind {
	case KindBool, KindNumber:
		return v.num != 0, true
	case KindEmpty:
		return false, true
	case KindString:
		switch strings.ToUpper(strings.TrimSpace(v.str)) {
		case "TRUE":
			return true, true
		case "FALSE":
			return false, true
		}
	}
	return false, false
}

// Equal reports deep equality of two values.
func (v Value) Equal(o Value) bool {
	if v.kind != o.kind {
		return false
	}
	switch v.kind {
	case KindNumber, KindBool:
		return v.num == o.num || (math.IsNaN(v.num) && math.IsNaN(o.num))
	case KindString, KindError:
		return v.str == o.str
	}
	return true
}

// Compare orders two values: numbers < strings < bools < errors, with
// natural ordering inside each kind. Used by relational operators for
// ORDER BY and duplicate elimination.
func (v Value) Compare(o Value) int {
	if v.kind != o.kind {
		return int(v.kind) - int(o.kind)
	}
	switch v.kind {
	case KindNumber, KindBool:
		switch {
		case v.num < o.num:
			return -1
		case v.num > o.num:
			return 1
		}
		return 0
	case KindString, KindError:
		return strings.Compare(v.str, o.str)
	}
	return 0
}

// String implements fmt.Stringer.
func (v Value) String() string { return v.Text() }

func formatNumber(f float64) string {
	if f == math.Trunc(f) && math.Abs(f) < 1e15 {
		return strconv.FormatInt(int64(f), 10)
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// ParseLiteral interprets user input text as a typed value: numbers and
// booleans are detected, everything else is a string. Formula text
// (leading '=') is not handled here.
func ParseLiteral(s string) Value {
	t := strings.TrimSpace(s)
	if t == "" {
		return Empty
	}
	if f, err := strconv.ParseFloat(t, 64); err == nil {
		return Number(f)
	}
	switch strings.ToUpper(t) {
	case "TRUE":
		return Bool(true)
	case "FALSE":
		return Bool(false)
	}
	return Str(s)
}
