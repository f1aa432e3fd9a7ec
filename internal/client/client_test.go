package client

import (
	"encoding/binary"
	"net"
	"strings"
	"testing"

	"predator/internal/frame"
	"predator/internal/types"
	"predator/internal/wire"
)

// fakeServer accepts one connection and runs fn over it.
func fakeServer(t *testing.T, fn func(c *wire.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		fn(wire.NewConn(conn))
	}()
	return ln.Addr().String()
}

// helloOK answers the handshake then delegates.
func helloOK(fn func(c *wire.Conn)) func(c *wire.Conn) {
	return func(c *wire.Conn) {
		typ, _, err := c.Recv()
		if err != nil || typ != wire.MsgHello {
			return
		}
		c.Send(wire.MsgOK, frame.AppendString(nil, "hi"))
		fn(c)
	}
}

func TestDialRejectsNonOKHello(t *testing.T) {
	addr := fakeServer(t, func(c *wire.Conn) {
		c.Recv()
		c.Send(wire.MsgError, frame.AppendString(nil, "go away"))
	})
	if _, err := Dial(addr, "x"); err == nil || !strings.Contains(err.Error(), "go away") {
		t.Errorf("err = %v", err)
	}
}

func TestDialFailsOnClosedPort(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	if _, err := Dial(addr, "x"); err == nil {
		t.Error("dial to closed port succeeded")
	}
}

func TestExecUnexpectedResponseType(t *testing.T) {
	addr := fakeServer(t, helloOK(func(c *wire.Conn) {
		c.Recv()
		c.Send(wire.MsgHandle, binary.AppendVarint(nil, 1)) // wrong type
	}))
	cl, err := Dial(addr, "x")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Exec("SELECT 1 FROM t"); err == nil ||
		!strings.Contains(err.Error(), "unexpected response") {
		t.Errorf("err = %v", err)
	}
}

func TestExecCorruptResultPayload(t *testing.T) {
	addr := fakeServer(t, helloOK(func(c *wire.Conn) {
		c.Recv()
		c.Send(wire.MsgResult, []byte{1, 0xFF}) // claims schema, truncated
	}))
	cl, err := Dial(addr, "x")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Exec("SELECT 1 FROM t"); err == nil {
		t.Error("corrupt result accepted")
	}
}

func TestExecServerDisconnectMidRequest(t *testing.T) {
	addr := fakeServer(t, helloOK(func(c *wire.Conn) {
		// Read the query then vanish without replying.
		c.Recv()
	}))
	cl, err := Dial(addr, "x")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Exec("SELECT 1 FROM t"); err == nil {
		t.Error("disconnect mid-request not reported")
	}
}

func TestCompileDoesNotNeedServer(t *testing.T) {
	addr := fakeServer(t, helloOK(func(c *wire.Conn) {}))
	cl, err := Dial(addr, "x")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	spec := UDFSpec{
		Name:   "id",
		Source: `func id(x int) int { return x; }`,
		Args:   []types.Kind{types.KindInt},
		Return: types.KindInt,
	}
	classBytes, err := cl.Compile(spec)
	if err != nil || len(classBytes) == 0 {
		t.Fatalf("compile: %v", err)
	}
	out, err := cl.TestLocally(spec, classBytes, []types.Value{types.NewInt(9)}, nil)
	if err != nil || out.Int != 9 {
		t.Errorf("local: %v, %v", out, err)
	}
	// Bad source errors locally too.
	if _, err := cl.Compile(UDFSpec{Name: "bad", Source: "nope"}); err == nil {
		t.Error("bad source compiled")
	}
}

func TestTestLocallyRejectsUnverifiableBytes(t *testing.T) {
	addr := fakeServer(t, helloOK(func(c *wire.Conn) {}))
	cl, err := Dial(addr, "x")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	_, err = cl.TestLocally(UDFSpec{Name: "x", Return: types.KindInt},
		[]byte("garbage class"), nil, nil)
	if err == nil {
		t.Error("garbage class executed locally")
	}
}
