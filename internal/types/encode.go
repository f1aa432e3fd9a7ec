package types

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Record encoding
//
// Rows are serialized to a compact, self-delimiting binary format used
// both on disk (heap file records) and on the wire (client/server
// protocol, UDF argument streams). The format is:
//
//	for each column:
//	  1 byte  kind tag (0 = NULL)
//	  payload:
//	    INT    8 bytes little-endian two's complement
//	    FLOAT  8 bytes little-endian IEEE-754 bits
//	    BOOL   1 byte (0/1)
//	    STRING uvarint length + bytes
//	    BYTES  uvarint length + bytes
//
// The same streamed encoding is what UDFs see at client and server
// (paper §6.4), which is what makes Jaguar UDF code location-portable.

// EncodeRow appends the serialized form of row to dst and returns the
// extended slice. The row must conform to the schema (same arity; each
// value NULL or of the column's kind).
func EncodeRow(dst []byte, schema *Schema, row Row) ([]byte, error) {
	if len(row) != schema.Arity() {
		return dst, fmt.Errorf("types: row arity %d does not match schema arity %d", len(row), schema.Arity())
	}
	for i, v := range row {
		if !v.IsNull() && v.Kind != schema.Columns[i].Kind {
			return dst, fmt.Errorf("types: column %q expects %s, row has %s",
				schema.Columns[i].Name, schema.Columns[i].Kind, v.Kind)
		}
		dst = EncodeValue(dst, v)
	}
	return dst, nil
}

// EncodeValue appends the serialized form of a single value to dst.
func EncodeValue(dst []byte, v Value) []byte {
	dst = append(dst, byte(v.Kind))
	switch v.Kind {
	case KindInvalid:
		// NULL: tag only.
	case KindInt:
		dst = binary.LittleEndian.AppendUint64(dst, uint64(v.Int))
	case KindFloat:
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.Float))
	case KindBool:
		if v.Bool {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	case KindString:
		dst = binary.AppendUvarint(dst, uint64(len(v.Str)))
		dst = append(dst, v.Str...)
	case KindBytes:
		dst = binary.AppendUvarint(dst, uint64(len(v.Bytes)))
		dst = append(dst, v.Bytes...)
	}
	return dst
}

// DecodeValue decodes one value from buf, returning the value and the
// number of bytes consumed. The returned BYTES value aliases buf.
func DecodeValue(buf []byte) (Value, int, error) {
	if len(buf) == 0 {
		return Value{}, 0, fmt.Errorf("types: truncated value (no tag)")
	}
	kind := Kind(buf[0])
	n := 1
	switch kind {
	case KindInvalid:
		return Null(), n, nil
	case KindInt:
		if len(buf) < n+8 {
			return Value{}, 0, fmt.Errorf("types: truncated INT value")
		}
		v := int64(binary.LittleEndian.Uint64(buf[n:]))
		return NewInt(v), n + 8, nil
	case KindFloat:
		if len(buf) < n+8 {
			return Value{}, 0, fmt.Errorf("types: truncated FLOAT value")
		}
		v := math.Float64frombits(binary.LittleEndian.Uint64(buf[n:]))
		return NewFloat(v), n + 8, nil
	case KindBool:
		if len(buf) < n+1 {
			return Value{}, 0, fmt.Errorf("types: truncated BOOL value")
		}
		return NewBool(buf[n] != 0), n + 1, nil
	case KindString:
		length, sz := binary.Uvarint(buf[n:])
		if sz <= 0 || uint64(len(buf)-n-sz) < length {
			return Value{}, 0, fmt.Errorf("types: truncated STRING value")
		}
		n += sz
		return NewString(string(buf[n : n+int(length)])), n + int(length), nil
	case KindBytes:
		length, sz := binary.Uvarint(buf[n:])
		if sz <= 0 || uint64(len(buf)-n-sz) < length {
			return Value{}, 0, fmt.Errorf("types: truncated BYTES value")
		}
		n += sz
		return NewBytes(buf[n : n+int(length)]), n + int(length), nil
	default:
		return Value{}, 0, fmt.Errorf("types: unknown value tag %d", buf[0])
	}
}

// DecodeRow decodes a row of schema.Arity() values from buf. The
// returned row's BYTES values alias buf; use Row.Clone to retain them.
func DecodeRow(buf []byte, schema *Schema) (Row, error) {
	return DecodeRowInto(nil, buf, schema)
}

// DecodeRowInto is DecodeRow decoding into row's storage, which it
// reuses when row has room for schema.Arity() values. A scan that
// passes back the row it got decodes every record without allocating.
func DecodeRowInto(row Row, buf []byte, schema *Schema) (Row, error) {
	if n := schema.Arity(); cap(row) >= n {
		row = row[:n]
	} else {
		row = make(Row, n)
	}
	off := 0
	for i := range row {
		v, n, err := DecodeValue(buf[off:])
		if err != nil {
			return nil, fmt.Errorf("column %d: %w", i, err)
		}
		if !v.IsNull() && v.Kind != schema.Columns[i].Kind {
			return nil, fmt.Errorf("types: column %q expects %s, record has %s",
				schema.Columns[i].Name, schema.Columns[i].Kind, v.Kind)
		}
		row[i] = v
		off += n
	}
	if off != len(buf) {
		return nil, fmt.Errorf("types: %d trailing bytes after row", len(buf)-off)
	}
	return row, nil
}

// EncodedSize returns the number of bytes EncodeValue would emit for v.
func EncodedSize(v Value) int {
	switch v.Kind {
	case KindInvalid:
		return 1
	case KindInt, KindFloat:
		return 9
	case KindBool:
		return 2
	case KindString:
		return 1 + uvarintLen(uint64(len(v.Str))) + len(v.Str)
	case KindBytes:
		return 1 + uvarintLen(uint64(len(v.Bytes))) + len(v.Bytes)
	default:
		return 1
	}
}

func uvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}
