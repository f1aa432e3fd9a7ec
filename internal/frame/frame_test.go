package frame

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"

	"predator/internal/types"
)

// allocated reports the heap bytes fn allocates.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func TestSendRecvReusesBuffer(t *testing.T) {
	var pipe bytes.Buffer
	c := NewConn(&pipe, &pipe)
	big := bytes.Repeat([]byte{7}, 3*chunk+11) // grows past the first chunk
	for _, p := range [][]byte{[]byte("query"), big, nil, []byte("again")} {
		if err := c.Send(0x42, p); err != nil {
			t.Fatal(err)
		}
		typ, got, err := c.Recv()
		if err != nil || typ != 0x42 || !bytes.Equal(got, p) {
			t.Fatalf("typ=%x len=%d err=%v, want %d bytes", typ, len(got), err, len(p))
		}
	}
	x := []byte("x")
	if n := testing.AllocsPerRun(10, func() {
		c.Send(1, x)
		c.Recv()
	}); n != 0 {
		t.Errorf("steady-state Send+Recv: %v allocs", n)
	}
	if _, _, err := c.Recv(); err != io.EOF {
		t.Errorf("clean end of stream: got %v, want io.EOF", err)
	}
}

func TestRecvRejectsOversizedHeader(t *testing.T) {
	hdr := AppendHeader(nil, 1, MaxFrame+1)
	c := NewConn(bytes.NewReader(hdr), io.Discard)
	if _, _, err := c.Recv(); !errors.Is(err, ErrFrameSize) {
		t.Fatalf("got %v, want ErrFrameSize", err)
	}
}

// A header that claims the largest legal payload and then ends the
// stream must cost about what arrived, not the 64 MiB it promised.
func TestRecvAllocationBoundedByArrivedBytes(t *testing.T) {
	c := NewConn(bytes.NewReader(AppendHeader(nil, 1, MaxFrame)), io.Discard)
	var err error
	n := allocated(func() { _, _, err = c.Recv() })
	if err == nil {
		t.Fatal("a truncated frame was received")
	}
	if n >= 1<<20 {
		t.Fatalf("a bare %d-byte header allocated %d bytes", HeaderSize, n)
	}
}

func TestAppendCursorPrimitives(t *testing.T) {
	buf := AppendString(nil, "predator")
	buf = AppendBytes(buf, []byte{1, 2})
	buf = binary.AppendUvarint(buf, 300)
	buf = binary.AppendVarint(buf, -5)
	buf = append(buf, 0xAA)
	buf = types.EncodeValue(buf, types.NewFloat(2.5))
	r := Cursor{Buf: buf}
	if got := r.Str(); got != "predator" {
		t.Errorf("str = %q", got)
	}
	if got := r.Bytes(); !bytes.Equal(got, []byte{1, 2}) {
		t.Errorf("bytes = %v", got)
	}
	if got := r.Uvarint(); got != 300 {
		t.Errorf("uvarint = %d", got)
	}
	if got := r.Varint(); got != -5 {
		t.Errorf("varint = %d", got)
	}
	if got := r.Byte(); got != 0xAA {
		t.Errorf("byte = %x", got)
	}
	if got := r.Value(); got.Float != 2.5 {
		t.Errorf("value = %v", got)
	}
	if r.Err != nil || len(r.Rest()) != 0 {
		t.Fatalf("err=%v rest=%d", r.Err, len(r.Rest()))
	}
	// Reading past the end sets Err instead of panicking, and sticks.
	r.Byte()
	if r.Err == nil {
		t.Error("overread not detected")
	}
	if r.Uvarint() != 0 || r.Bytes() != nil || r.Str() != "" {
		t.Error("reads after a failure returned data")
	}
}

func TestCursorBytesAliasPayload(t *testing.T) {
	buf := AppendBytes(nil, []byte("abc"))
	r := Cursor{Buf: buf}
	b := r.Bytes()
	buf[1] = 'X'
	if string(b) != "Xbc" {
		t.Fatalf("Bytes copied: %q", b)
	}
	// A length prefix beyond the payload fails instead of slicing.
	r = Cursor{Buf: binary.AppendUvarint(nil, 1<<62)}
	if r.Bytes() != nil || r.Err == nil {
		t.Fatal("oversized length accepted")
	}
}

func TestCountBoundedByRemainingBytes(t *testing.T) {
	for _, tc := range []struct {
		count uint64
		rest  int
		size  int
		ok    bool
	}{
		{3, 3, 1, true},
		{4, 3, 1, false},
		{3, 6, 2, true},
		{4, 7, 2, false},
		{5, 5, 0, true}, // size 0 counts as 1
		{6, 5, 0, false},
		{1 << 63, 5, 1, false},
	} {
		r := Cursor{Buf: append(binary.AppendUvarint(nil, tc.count), make([]byte, tc.rest)...)}
		n := r.Count(tc.size)
		if ok := r.Err == nil; ok != tc.ok || (ok && uint64(n) != tc.count) {
			t.Errorf("Count(%d) of %d with %d bytes left = %d, err %v", tc.size, tc.count, tc.rest, n, r.Err)
		}
	}
}

func TestPooledBuilders(t *testing.T) {
	b := AppendString(Take(), "hello")
	Put(b)
	if got := Take(); len(got) != 0 {
		t.Fatalf("Take returned %d bytes", len(got))
	}
}

// A Take+Put pair allocates nothing once the pool is warm; a slice put
// into a sync.Pool as it is would box its header every time.
func TestTakePutDoesNotAllocate(t *testing.T) {
	Put(AppendString(Take(), "warm"))
	if n := testing.AllocsPerRun(100, func() { Put(AppendString(Take(), "hello")) }); n != 0 {
		t.Errorf("Take+Put: %v allocs, want 0", n)
	}
}
