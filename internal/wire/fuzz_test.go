package wire

import (
	"bytes"
	"io"
	"testing"

	"predator/internal/frame"
)

// FuzzFrame feeds arbitrary bytes to the one frame decoder the way a
// hostile peer would (a client to the server, a child to the parent):
// as a stream through frame.Conn.Recv, then every received payload
// through the cursor and the result and error decoders. Nothing may
// panic, and allocation must stay proportional to the input, whatever
// lengths and counts the input claims. The seed corpus is under
// testdata/fuzz/FuzzFrame.
func FuzzFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		c := frame.NewConn(bytes.NewReader(data), io.Discard)
		n := allocated(func() {
			for {
				_, payload, err := c.Recv()
				if err != nil {
					return
				}
				DecodeResult(payload)
				DecodeError(payload)
				r := frame.Cursor{Buf: payload}
				for r.Err == nil && len(r.Rest()) > 0 {
					r.Value()
				}
				r = frame.Cursor{Buf: payload}
				for r.Err == nil && len(r.Rest()) > 0 {
					r.Count(1)
					r.Bytes()
				}
			}
		})
		// The receive buffer starts at 64 KiB; a decoded value costs at
		// most about a hundred bytes per input byte.
		if limit := 1<<20 + 256*uint64(len(data)); n > limit {
			t.Fatalf("%d input bytes allocated %d bytes (limit %d)", len(data), n, limit)
		}
	})
}
