package wire

import (
	"errors"
	"testing"
	"time"

	"predator/internal/frame"
)

func TestEncodeDecodeError(t *testing.T) {
	msg, code, retryable := DecodeError(EncodeError("too busy", "overload", true))
	if msg != "too busy" || code != "overload" || !retryable {
		t.Fatalf("got (%q, %q, %v)", msg, code, retryable)
	}
	msg, code, retryable = DecodeError(EncodeError("bad query", "", false))
	if msg != "bad query" || code != "" || retryable {
		t.Fatalf("got (%q, %q, %v)", msg, code, retryable)
	}
}

func TestDecodeErrorLegacyPayload(t *testing.T) {
	// A v0 server sends just the message string; the new decoder must
	// accept it with empty code and retryable=false.
	msg, code, retryable := DecodeError(frame.AppendString(nil, "plain old error"))
	if msg != "plain old error" || code != "" || retryable {
		t.Fatalf("got (%q, %q, %v)", msg, code, retryable)
	}
}

func TestDecodeErrorLegacyReader(t *testing.T) {
	// A v0 client reads only the leading string; the flags+code suffix
	// must not corrupt it.
	r := frame.Cursor{Buf: EncodeError("shed", "overload", true)}
	if got := r.Str(); got != "shed" || r.Err != nil {
		t.Fatalf("legacy read got %q, err %v", got, r.Err)
	}
}

func TestWireFaultDisconnectOnSend(t *testing.T) {
	defer InjectFault("wiresend:disconnect")()
	var buf pipeBuf
	c := NewConn(&buf).EnableFaultInjection()
	err := c.Send(MsgOK, []byte("payload"))
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("got %v, want ErrInjected", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("disconnect fault wrote %d bytes", buf.Len())
	}
	// One-shot: the next send succeeds.
	if err := c.Send(MsgOK, []byte("payload")); err != nil {
		t.Fatalf("second send: %v", err)
	}
}

func TestWireFaultPartialWrite(t *testing.T) {
	defer InjectFault("wiresend:partial")()
	var buf pipeBuf
	c := NewConn(&buf).EnableFaultInjection()
	payload := []byte("0123456789")
	err := c.Send(MsgResult, payload)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("got %v, want ErrInjected", err)
	}
	// Header plus half the payload made it out: a frame the reader can
	// never complete.
	if want := 5 + len(payload)/2; buf.Len() != want {
		t.Fatalf("partial fault wrote %d bytes, want %d", buf.Len(), want)
	}
	if _, _, err := NewConn(&buf).Recv(); err == nil {
		t.Fatal("reader completed a truncated frame")
	}
}

func TestWireFaultNthHit(t *testing.T) {
	defer InjectFault("wirerecv:disconnect:3")()
	var buf pipeBuf
	w := NewConn(&buf)
	for i := 0; i < 3; i++ {
		if err := w.Send(MsgPing, nil); err != nil {
			t.Fatal(err)
		}
	}
	r := NewConn(&buf).EnableFaultInjection()
	for i := 0; i < 2; i++ {
		if _, _, err := r.Recv(); err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
	}
	if _, _, err := r.Recv(); !errors.Is(err, ErrInjected) {
		t.Fatalf("third recv: got %v, want ErrInjected", err)
	}
}

func TestWireFaultStall(t *testing.T) {
	defer InjectFault("wiresend:stall:30ms")()
	var buf pipeBuf
	c := NewConn(&buf).EnableFaultInjection()
	start := time.Now()
	if err := c.Send(MsgOK, nil); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 25*time.Millisecond {
		t.Fatalf("stall fault did not stall (took %v)", d)
	}
}

func TestWireFaultScopedToOptedInConns(t *testing.T) {
	defer InjectFault("wiresend:disconnect")()
	var buf pipeBuf
	c := NewConn(&buf) // no EnableFaultInjection: a client-side conn
	if err := c.Send(MsgOK, nil); err != nil {
		t.Fatalf("fault fired on un-opted conn: %v", err)
	}
}

func TestWireFaultBadSpecsDisarm(t *testing.T) {
	for _, spec := range []string{
		"", "wiresend", "wiresend:stall", "wiresend:stall:bogus",
		"wiresend:partial:0", "wiresend:nosuchmode", "walwrite:crash",
		"invoke:crash",
	} {
		if p := parseWireFault(spec); p != nil {
			t.Fatalf("spec %q parsed to %+v, want nil", spec, p)
		}
	}
}
