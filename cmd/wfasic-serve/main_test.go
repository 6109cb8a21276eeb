package main

import (
	"errors"
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// A client that sends part of a request header and then stalls is dropped
// once readHeaderTimeout expires, without ever reaching the handler.
func TestSlowHeaderDropped(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := newHTTPServer("", http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		t.Error("a partial header reached the handler")
	}))
	// Serve returns when the deferred Close stops it. A server that stops
	// earlier refuses or drops the connection at once, which the checks
	// below report.
	go func() { _ = hs.Serve(ln) }()
	defer hs.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := io.WriteString(conn, "POST /align HTTP/1.1\r\nHost: wfasic\r\n"); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(start.Add(readHeaderTimeout + 2*time.Second)); err != nil {
		t.Fatal(err)
	}
	_, err = conn.Read(make([]byte, 512))
	took := time.Since(start)
	var ne net.Error
	switch {
	case errors.As(err, &ne) && ne.Timeout():
		t.Fatalf("connection still open %v after a stalled header (readHeaderTimeout %v)", took, readHeaderTimeout)
	case err == nil:
		t.Fatal("server answered a partial header")
	case took < readHeaderTimeout-100*time.Millisecond:
		t.Fatalf("connection dropped after %v, before readHeaderTimeout %v", took, readHeaderTimeout)
	}
}
