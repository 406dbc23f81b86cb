package main

import (
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"testing"
	"time"

	"iwscan/internal/jobs"
)

// TestHTTPServerIdleOutlastsLongPoll: the daemon closes idle keep-alive
// connections, but never sooner than the longest journal long-poll.
func TestHTTPServerIdleOutlastsLongPoll(t *testing.T) {
	srv := newHTTPServer(http.NotFoundHandler())
	if srv.IdleTimeout <= jobs.MaxLongPoll {
		t.Fatalf("IdleTimeout %v, want > the %v long-poll", srv.IdleTimeout, jobs.MaxLongPoll)
	}
}

// TestHTTPServerDropsSlowHeaders: a client that never finishes its
// request headers is disconnected once the header deadline passes. The
// deadline is scaled down 50x so the test runs in a fraction of a
// second; an unset deadline stays unset and fails it.
func TestHTTPServerDropsSlowHeaders(t *testing.T) {
	srv := newHTTPServer(http.NotFoundHandler())
	srv.ReadHeaderTimeout /= 50
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET /jobs HTTP/1.1\r\nHost: x\r\n")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	_, err = io.ReadAll(conn)
	if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatal("server kept a connection with unfinished headers open")
	}
}
