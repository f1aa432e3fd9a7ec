package types

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindInt:    "INT",
		KindFloat:  "FLOAT",
		KindBool:   "BOOL",
		KindString: "STRING",
		KindBytes:  "BYTES",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
	if got := Kind(99).String(); !strings.Contains(got, "INVALID") {
		t.Errorf("unknown kind should stringify as INVALID, got %q", got)
	}
}

func TestKindFromName(t *testing.T) {
	cases := map[string]Kind{
		"int": KindInt, "INTEGER": KindInt, "BigInt": KindInt,
		"float": KindFloat, "DOUBLE": KindFloat, "real": KindFloat,
		"bool": KindBool, "BOOLEAN": KindBool,
		"string": KindString, "TEXT": KindString, "varchar": KindString,
		"bytes": KindBytes, "BYTEARRAY": KindBytes, "blob": KindBytes,
	}
	for name, want := range cases {
		got, err := KindFromName(name)
		if err != nil {
			t.Fatalf("KindFromName(%q): %v", name, err)
		}
		if got != want {
			t.Errorf("KindFromName(%q) = %s, want %s", name, got, want)
		}
	}
	if _, err := KindFromName("POINT"); err == nil {
		t.Error("KindFromName(POINT) should fail")
	}
}

func TestSchemaColumnIndex(t *testing.T) {
	s := NewSchema(
		Column{Name: "id", Kind: KindInt},
		Column{Name: "History", Kind: KindBytes},
	)
	if got := s.ColumnIndex("history"); got != 1 {
		t.Errorf("ColumnIndex(history) = %d, want 1 (case-insensitive)", got)
	}
	if got := s.ColumnIndex("missing"); got != -1 {
		t.Errorf("ColumnIndex(missing) = %d, want -1", got)
	}
	if s.Arity() != 2 {
		t.Errorf("Arity = %d, want 2", s.Arity())
	}
}

func TestSchemaProjectConcat(t *testing.T) {
	a := NewSchema(Column{Name: "a", Kind: KindInt}, Column{Name: "b", Kind: KindString})
	b := NewSchema(Column{Name: "c", Kind: KindFloat})
	cat := a.Concat(b)
	if cat.Arity() != 3 || cat.Columns[2].Name != "c" {
		t.Fatalf("Concat wrong: %v", cat)
	}
	proj := cat.Project([]int{2, 0})
	if proj.Arity() != 2 || proj.Columns[0].Name != "c" || proj.Columns[1].Name != "a" {
		t.Fatalf("Project wrong: %v", proj)
	}
	if !a.Equal(NewSchema(Column{Name: "A", Kind: KindInt}, Column{Name: "B", Kind: KindString})) {
		t.Error("Equal should be case-insensitive on names")
	}
	if a.Equal(b) {
		t.Error("different schemas reported equal")
	}
}

func TestValueCompareSameKind(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewInt(2), 0},
		{NewInt(3), NewInt(2), 1},
		{NewFloat(1.5), NewFloat(2.5), -1},
		{NewBool(false), NewBool(true), -1},
		{NewString("abc"), NewString("abd"), -1},
		{NewBytes([]byte{1, 2}), NewBytes([]byte{1, 2, 3}), -1},
		{NewBytes([]byte{2}), NewBytes([]byte{1, 9}), 1},
		{NewInt(1), NewFloat(1.0), 0},  // numeric cross-kind
		{NewInt(1), NewFloat(1.5), -1}, // numeric cross-kind
		{Null(), NewInt(0), -1},
		{NewInt(0), Null(), 1},
		{Null(), Null(), 0},
	}
	for _, c := range cases {
		got, err := c.a.Compare(c.b)
		if err != nil {
			t.Fatalf("Compare(%s,%s): %v", c.a, c.b, err)
		}
		if sign(got) != c.want {
			t.Errorf("Compare(%s,%s) = %d, want sign %d", c.a, c.b, got, c.want)
		}
	}
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	}
	return 0
}

func TestValueCompareKindMismatch(t *testing.T) {
	if _, err := NewInt(1).Compare(NewString("1")); err == nil {
		t.Error("comparing INT with STRING should fail")
	}
	if _, err := NewBytes(nil).Compare(NewBool(true)); err == nil {
		t.Error("comparing BYTES with BOOL should fail")
	}
}

func TestValueCompareNaN(t *testing.T) {
	nan := NewFloat(math.NaN())
	if got, _ := nan.Compare(NewFloat(1)); got != -1 {
		t.Errorf("NaN should sort before numbers, got %d", got)
	}
	if got, _ := NewFloat(1).Compare(nan); got != 1 {
		t.Errorf("numbers should sort after NaN, got %d", got)
	}
	if got, _ := nan.Compare(nan); got != 0 {
		t.Errorf("NaN vs NaN should compare 0, got %d", got)
	}
}

func TestValueClone(t *testing.T) {
	orig := []byte{1, 2, 3}
	v := NewBytes(orig)
	c := v.Clone()
	orig[0] = 99
	if c.Bytes[0] != 1 {
		t.Error("Clone should deep-copy byte arrays")
	}
	r := Row{NewBytes([]byte{5})}
	rc := r.Clone()
	r[0].Bytes[0] = 6
	if rc[0].Bytes[0] != 5 {
		t.Error("Row.Clone should deep-copy byte arrays")
	}
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Null(), "NULL"},
		{NewInt(-42), "-42"},
		{NewBool(true), "TRUE"},
		{NewBool(false), "FALSE"},
		{NewString("o'hare"), "'o''hare'"},
		{NewBytes([]byte{0xab}), "X'ab'"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String(%v) = %q, want %q", c.v.Kind, got, c.want)
		}
	}
	long := NewBytes(make([]byte, 100))
	if s := long.String(); !strings.Contains(s, "100 bytes") {
		t.Errorf("long bytes should be abbreviated, got %q", s)
	}
}

func TestEncodeDecodeRowRoundTrip(t *testing.T) {
	schema := NewSchema(
		Column{Name: "id", Kind: KindInt},
		Column{Name: "price", Kind: KindFloat},
		Column{Name: "active", Kind: KindBool},
		Column{Name: "name", Kind: KindString},
		Column{Name: "payload", Kind: KindBytes},
	)
	rows := []Row{
		{NewInt(7), NewFloat(3.14), NewBool(true), NewString("ibm"), NewBytes([]byte{1, 2, 3})},
		{NewInt(-1), NewFloat(math.Inf(1)), NewBool(false), NewString(""), NewBytes(nil)},
		{Null(), Null(), Null(), Null(), Null()},
	}
	for _, row := range rows {
		buf, err := EncodeRow(nil, schema, row)
		if err != nil {
			t.Fatalf("EncodeRow(%s): %v", row, err)
		}
		got, err := DecodeRow(buf, schema)
		if err != nil {
			t.Fatalf("DecodeRow(%s): %v", row, err)
		}
		for i := range row {
			c, err := row[i].Compare(got[i])
			if err != nil || c != 0 {
				t.Errorf("round trip col %d: got %s, want %s", i, got[i], row[i])
			}
		}
	}
}

func TestEncodeRowArityMismatch(t *testing.T) {
	schema := NewSchema(Column{Name: "a", Kind: KindInt})
	if _, err := EncodeRow(nil, schema, Row{NewInt(1), NewInt(2)}); err == nil {
		t.Error("arity mismatch should fail")
	}
	if _, err := EncodeRow(nil, schema, Row{NewString("x")}); err == nil {
		t.Error("kind mismatch should fail")
	}
}

func TestDecodeValueTruncated(t *testing.T) {
	full := EncodeValue(nil, NewString("hello world"))
	for cut := 0; cut < len(full); cut++ {
		if _, _, err := DecodeValue(full[:cut]); err == nil && cut < len(full) {
			// Cuts inside the payload must error; a cut at a value
			// boundary cannot occur for a single value.
			t.Errorf("DecodeValue of %d/%d bytes should fail", cut, len(full))
		}
	}
	if _, _, err := DecodeValue([]byte{0xff}); err == nil {
		t.Error("unknown tag should fail")
	}
}

func TestDecodeRowTrailingBytes(t *testing.T) {
	schema := NewSchema(Column{Name: "a", Kind: KindInt})
	buf, _ := EncodeRow(nil, schema, Row{NewInt(1)})
	buf = append(buf, 0x00)
	if _, err := DecodeRow(buf, schema); err == nil {
		t.Error("trailing bytes should fail")
	}
}

// DecodeRowInto decodes into the row it is given when that row has
// room, and allocates nothing for a row without strings.
func TestDecodeRowIntoReusesRow(t *testing.T) {
	schema := NewSchema(Column{Name: "a", Kind: KindInt}, Column{Name: "b", Kind: KindBytes})
	recs := [][]byte{}
	for i := range 3 {
		buf, err := EncodeRow(nil, schema, Row{NewInt(int64(i)), NewBytes(bytes.Repeat([]byte{byte(i)}, i+1))})
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, buf)
	}
	row := make(Row, 0, 2)
	storage := &row[:1][0]
	for i, rec := range recs {
		got, err := DecodeRowInto(row, rec, schema)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := DecodeRow(rec, schema)
		if &got[0] != storage || got.String() != want.String() {
			t.Fatalf("record %d: got %s (reused %v), want %s", i, got, &got[0] == storage, want)
		}
		row = got
	}
	if n := testing.AllocsPerRun(100, func() { row, _ = DecodeRowInto(row, recs[2], schema) }); n != 0 {
		t.Errorf("DecodeRowInto made %.1f allocations, want 0", n)
	}
	if _, err := DecodeRowInto(row, append(recs[0], 0), schema); err == nil {
		t.Error("trailing bytes should fail")
	}
}

func TestEncodedSizeMatches(t *testing.T) {
	vals := []Value{
		Null(), NewInt(5), NewFloat(2.5), NewBool(true),
		NewString("abcdef"), NewBytes(make([]byte, 300)),
	}
	for _, v := range vals {
		buf := EncodeValue(nil, v)
		if got := EncodedSize(v); got != len(buf) {
			t.Errorf("EncodedSize(%s) = %d, actual %d", v.Kind, got, len(buf))
		}
	}
}

// Property: every (int, float, bool, string, bytes) row round-trips
// through encode/decode unchanged.
func TestQuickRowRoundTrip(t *testing.T) {
	schema := NewSchema(
		Column{Name: "i", Kind: KindInt},
		Column{Name: "f", Kind: KindFloat},
		Column{Name: "b", Kind: KindBool},
		Column{Name: "s", Kind: KindString},
		Column{Name: "y", Kind: KindBytes},
	)
	prop := func(i int64, f float64, b bool, s string, y []byte) bool {
		row := Row{NewInt(i), NewFloat(f), NewBool(b), NewString(s), NewBytes(y)}
		buf, err := EncodeRow(nil, schema, row)
		if err != nil {
			return false
		}
		got, err := DecodeRow(buf, schema)
		if err != nil {
			return false
		}
		for k := range row {
			c, err := row[k].Compare(got[k])
			if err != nil || c != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// Property: Compare is antisymmetric over ints and byte slices.
func TestQuickCompareAntisymmetric(t *testing.T) {
	prop := func(a, b []byte) bool {
		x, err1 := NewBytes(a).Compare(NewBytes(b))
		y, err2 := NewBytes(b).Compare(NewBytes(a))
		return err1 == nil && err2 == nil && sign(x) == -sign(y)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}
