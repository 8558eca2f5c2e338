package transport

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// recordIngestor accepts every line and remembers it.
type recordIngestor struct {
	mu    sync.Mutex
	lines []string
}

func (r *recordIngestor) BeginProduce() bool { return true }
func (r *recordIngestor) EndProduce()        {}
func (r *recordIngestor) Draining() bool     { return false }
func (r *recordIngestor) Ingest(line string) bool {
	r.mu.Lock()
	r.lines = append(r.lines, line)
	r.mu.Unlock()
	return true
}

func (r *recordIngestor) lens() []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]int, len(r.lines))
	for i, l := range r.lines {
		out[i] = len(l)
	}
	return out
}

func quietConfig(maxLineLen int) Config {
	return Config{MaxLineLen: maxLineLen, Logf: func(string, ...any) {}}
}

// maxLineSizes covers a cap below the scanner's 64 KiB starting buffer and
// the daemon's 1 MiB default.
var maxLineSizes = []int{4096, 1 << 20}

// sendTCP writes payload on a fresh connection, half-closes it and reads
// until the server hangs up, so every line the server will ingest has been
// ingested on return. A write error is tolerated: the server may close a
// connection carrying an over-long line before reading all of it.
func sendTCP(t *testing.T, addr, payload string) {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := io.WriteString(c, payload); err == nil {
		c.(*net.TCPConn).CloseWrite()
	}
	io.Copy(io.Discard, c)
}

// TestTCPMaxLineLen: on the scanner path and on the hijack first-line path,
// a line of exactly MaxLineLen bytes is ingested and a line one byte longer
// ends the connection without being ingested.
func TestTCPMaxLineLen(t *testing.T) {
	for _, hijack := range []bool{false, true} {
		for _, max := range maxLineSizes {
			t.Run(fmt.Sprintf("hijack=%v/max=%d", hijack, max), func(t *testing.T) {
				ing := &recordIngestor{}
				tcp := NewTCP(quietConfig(max), ing, 10*time.Second)
				if hijack {
					tcp.SetHijacker(func(string) HijackHandler { return nil })
				}
				if err := tcp.Start("127.0.0.1:0"); err != nil {
					t.Fatal(err)
				}
				defer tcp.StopAccepting()
				addr := tcp.Addr().String()

				sendTCP(t, addr, strings.Repeat("a", max)+"\nok\n")
				if got := ing.lens(); fmt.Sprint(got) != fmt.Sprint([]int{max, 2}) {
					t.Fatalf("line of MaxLineLen: ingested lengths %v, want [%d 2]", got, max)
				}
				sendTCP(t, addr, strings.Repeat("b", max+1)+"\nok\n")
				if got := ing.lens(); len(got) != 2 {
					t.Fatalf("line of MaxLineLen+1: ingested lengths %v, want it rejected", got)
				}
			})
		}
	}
}

// TestHTTPIngestMaxLineLen: POST /ingest accepts a line of exactly MaxLineLen
// bytes and answers 400 to a line one byte longer.
func TestHTTPIngestMaxLineLen(t *testing.T) {
	for _, max := range maxLineSizes {
		t.Run(fmt.Sprintf("max=%d", max), func(t *testing.T) {
			ing := &recordIngestor{}
			h := NewHTTP(quietConfig(max), ing)
			if err := h.Start("127.0.0.1:0"); err != nil {
				t.Fatal(err)
			}
			defer h.Stop(context.Background())
			url := "http://" + h.Addr().String() + "/ingest"
			post := func(body string) *http.Response {
				t.Helper()
				resp, err := http.Post(url, "application/x-ndjson", strings.NewReader(body))
				if err != nil {
					t.Fatal(err)
				}
				return resp
			}

			resp := post(strings.Repeat("a", max) + "\n")
			var res IngestResult
			err := json.NewDecoder(resp.Body).Decode(&res)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK || res.Accepted != 1 {
				t.Fatalf("line of MaxLineLen: status %d, result %+v, err %v", resp.StatusCode, res, err)
			}
			resp = post(strings.Repeat("b", max+1) + "\n")
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("line of MaxLineLen+1: status %d, want 400", resp.StatusCode)
			}
			if got := ing.lens(); fmt.Sprint(got) != fmt.Sprint([]int{max}) {
				t.Fatalf("ingested lengths %v, want [%d]", got, max)
			}
		})
	}
}
