package flashabacus

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestServeDropsSlowHeaderClient: a client that sends half a request
// header and then stalls is disconnected once readHeaderTimeout passes,
// unanswered, while a well-behaved client of the same server is served.
func TestServeDropsSlowHeaderClient(t *testing.T) {
	t.Parallel()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- serve(ctx, ln, ServiceConfig{}) }()
	defer func() {
		cancel()
		if err := <-errc; err != nil {
			t.Errorf("serve: %v", err)
		}
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	// No blank line: the header never completes.
	if _, err := fmt.Fprint(conn, "GET /healthz HTTP/1.1\r\nHost: abacusd\r\n"); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(start.Add(readHeaderTimeout + 10*time.Second))
	got, err := io.ReadAll(conn)
	if err != nil {
		t.Fatalf("slow-header client still connected after %s: %v", time.Since(start), err)
	}
	if waited := time.Since(start); waited < readHeaderTimeout/2 {
		t.Errorf("disconnected after %s, before the %s header timeout", waited, readHeaderTimeout)
	}
	if strings.Contains(string(got), "200 OK") {
		t.Errorf("half a header was answered: %q", got)
	}

	resp, err := http.Get("http://" + ln.Addr().String() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", resp.StatusCode)
	}
}
