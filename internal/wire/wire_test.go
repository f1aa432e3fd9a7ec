package wire

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
	"testing/quick"

	"predator/internal/frame"
	"predator/internal/types"
)

// pipeBuf is an in-memory ReadWriter for conn testing.
type pipeBuf struct {
	bytes.Buffer
}

func TestFrameRoundTrip(t *testing.T) {
	var buf pipeBuf
	c := NewConn(&buf)
	payload := []byte("hello frame")
	if err := c.Send(MsgQuery, payload); err != nil {
		t.Fatal(err)
	}
	typ, got, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if typ != MsgQuery || !bytes.Equal(got, payload) {
		t.Errorf("typ=%d payload=%q", typ, got)
	}
}

func TestFrameEmptyPayload(t *testing.T) {
	var buf pipeBuf
	c := NewConn(&buf)
	if err := c.Send(MsgPing, nil); err != nil {
		t.Fatal(err)
	}
	typ, got, err := c.Recv()
	if err != nil || typ != MsgPing || len(got) != 0 {
		t.Errorf("typ=%d payload=%v err=%v", typ, got, err)
	}
}

func TestRecvRejectsOversizedFrame(t *testing.T) {
	var buf pipeBuf
	// Forge a header claiming a huge payload.
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF, MsgQuery})
	c := NewConn(&buf)
	if _, _, err := c.Recv(); err == nil {
		t.Error("oversized frame accepted")
	}
}

func TestSchemaRoundTrip(t *testing.T) {
	s := types.NewSchema(
		types.Column{Name: "id", Kind: types.KindInt},
		types.Column{Name: "payload", Kind: types.KindBytes},
	)
	r := frame.Cursor{Buf: appendSchema(nil, s)}
	got := decodeSchema(&r)
	if r.Err != nil || !got.Equal(s) {
		t.Errorf("schema = %s, err = %v", got, r.Err)
	}
}

func TestResultRoundTrip(t *testing.T) {
	s := types.NewSchema(
		types.Column{Name: "a", Kind: types.KindInt},
		types.Column{Name: "b", Kind: types.KindString},
		types.Column{Name: "c", Kind: types.KindBytes},
	)
	rows := []types.Row{
		{types.NewInt(1), types.NewString("x"), types.NewBytes([]byte{9})},
		{types.Null(), types.NewString(""), types.Null()},
	}
	payload := EncodeResult(s, rows, 7, "msg", "plan")
	gs, grows, affected, message, plan, err := DecodeResult(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !gs.Equal(s) || len(grows) != 2 || affected != 7 || message != "msg" || plan != "plan" {
		t.Errorf("decoded: %v %v %d %q %q", gs, grows, affected, message, plan)
	}
	if grows[0][0].Int != 1 || grows[0][2].Bytes[0] != 9 || !grows[1][0].IsNull() {
		t.Errorf("rows = %v", grows)
	}
	// The rows share one slab, each capped at its length, so an append
	// to the first cannot overwrite the second.
	if cap(grows[0]) != 3 {
		t.Errorf("row 0 has cap %d, want 3", cap(grows[0]))
	}
	_ = append(grows[0], types.NewInt(5))
	if !grows[1][0].IsNull() {
		t.Errorf("an append to row 0 reached row 1: %v", grows[1])
	}
}

func TestResultNoSchema(t *testing.T) {
	payload := EncodeResult(nil, nil, 3, "dropped", "")
	gs, grows, affected, message, _, err := DecodeResult(payload)
	if err != nil || gs != nil || grows != nil || affected != 3 || message != "dropped" {
		t.Errorf("decoded: %v %v %d %q %v", gs, grows, affected, message, err)
	}
}

func TestDecodeResultCorrupt(t *testing.T) {
	payload := EncodeResult(types.NewSchema(types.Column{Name: "a", Kind: types.KindInt}),
		[]types.Row{{types.NewInt(1)}}, 0, "", "")
	for _, cut := range []int{1, 3, len(payload) / 2} {
		if _, _, _, _, _, err := DecodeResult(payload[:cut]); err == nil {
			t.Errorf("truncated result (cut=%d) accepted", cut)
		}
	}
	// A row-count bomb: five bytes claiming 2^20 zero-column rows must
	// fail without allocating for the rows it claims.
	bomb := binary.AppendUvarint([]byte{1, 0}, 1<<20)
	var err error
	if n := allocated(func() { _, _, _, _, _, err = DecodeResult(bomb) }); err == nil || n > 64<<10 {
		t.Errorf("row-count bomb: err=%v after allocating %d bytes", err, n)
	}
}

// allocated reports the heap bytes fn allocates.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// Property: results of random int/string rows round-trip.
func TestQuickResultRoundTrip(t *testing.T) {
	s := types.NewSchema(
		types.Column{Name: "i", Kind: types.KindInt},
		types.Column{Name: "s", Kind: types.KindString},
	)
	prop := func(vals []int64, strs []string) bool {
		n := len(vals)
		if len(strs) < n {
			n = len(strs)
		}
		rows := make([]types.Row, n)
		for i := 0; i < n; i++ {
			rows[i] = types.Row{types.NewInt(vals[i]), types.NewString(strs[i])}
		}
		payload := EncodeResult(s, rows, int64(n), "", "")
		_, grows, affected, _, _, err := DecodeResult(payload)
		if err != nil || affected != int64(n) || len(grows) != n {
			return false
		}
		for i := range grows {
			if grows[i][0].Int != vals[i] || grows[i][1].Str != strs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
