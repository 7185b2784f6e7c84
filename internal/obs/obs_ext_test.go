// External tests: the span CSV schema and the debug HTTP surface
// end-to-end.
package obs_test

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"subtrav/internal/obs"
)

func TestSpanCSVRowMatchesHeader(t *testing.T) {
	cols := strings.Split(obs.SpanCSVHeader, ",")
	s := obs.Span{
		QueryID: 5, Op: "bfs", Start: 7, Unit: 2,
		SubmitNanos: 1, ScheduleNanos: 2, StartNanos: 3, EndNanos: 4,
		Placement: obs.Placement{Affinity: 0.25, AuctionRounds: 2},
		QueueLen:  3, Degraded: true,
		CacheHits: 8, CacheMisses: 1, BytesRead: 4096, DiskWaitNanos: 9,
		WaitNanos: 1, ExecNanos: 1, Outcome: obs.OutcomeCompleted,
		Err: `boom, with "quotes"`,
	}
	row := s.CSVRow()
	// The err field is quoted, so count fields respecting quotes.
	fields := splitCSV(row)
	if len(fields) != len(cols) {
		t.Fatalf("row has %d fields, header has %d:\n%s\n%s",
			len(fields), len(cols), obs.SpanCSVHeader, row)
	}
	if fields[0] != "5" || fields[2] != "bfs" || fields[len(fields)-2] != "completed" {
		t.Errorf("unexpected field placement: %v", fields)
	}
	// splitCSV strips quote characters, so the doubled quotes collapse.
	if want := "boom, with quotes"; fields[len(fields)-1] != want {
		t.Errorf("err field = %q, want %q", fields[len(fields)-1], want)
	}
}

// splitCSV splits one CSV line honoring double-quoted cells (quote
// characters themselves are dropped).
func splitCSV(line string) []string {
	var fields []string
	var cur strings.Builder
	inQuote := false
	for i := 0; i < len(line); i++ {
		c := line[i]
		switch {
		case c == '"':
			inQuote = !inQuote
		case c == ',' && !inQuote:
			fields = append(fields, cur.String())
			cur.Reset()
		default:
			cur.WriteByte(c)
		}
	}
	fields = append(fields, cur.String())
	return fields
}

func TestDebugServerEndToEnd(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("dbg_requests_total", "requests").Add(5)
	healthy := true
	srv, err := obs.StartDebugServer("127.0.0.1:0", reg, func() error {
		if !healthy {
			return errors.New("draining")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := fmt.Sprintf("http://%s", srv.Addr())

	body, ctype := httpGet(t, base+"/metrics", http.StatusOK)
	if !strings.Contains(body, "dbg_requests_total 5") {
		t.Errorf("/metrics missing counter:\n%s", body)
	}
	if !strings.HasPrefix(ctype, "text/plain; version=0.0.4") {
		t.Errorf("/metrics Content-Type = %q", ctype)
	}

	if body, _ := httpGet(t, base+"/healthz", http.StatusOK); strings.TrimSpace(body) != "ok" {
		t.Errorf("/healthz body = %q", body)
	}
	healthy = false
	if body, _ := httpGet(t, base+"/healthz", http.StatusServiceUnavailable); !strings.Contains(body, "draining") {
		t.Errorf("unhealthy /healthz body = %q", body)
	}

	if body, _ := httpGet(t, base+"/debug/pprof/", http.StatusOK); !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ index missing profiles:\n%.200s", body)
	}
}

func httpGet(t *testing.T, url string, wantStatus int) (body, contentType string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d, want %d", url, resp.StatusCode, wantStatus)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b), resp.Header.Get("Content-Type")
}
