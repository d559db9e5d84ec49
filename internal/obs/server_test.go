package obs

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
)

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

func TestServerEndpoints(t *testing.T) {
	reg := NewMetrics()
	reg.Counter("test_total").Add(42)
	srv, err := NewServer("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	rec := NewFlightRecorder(0)
	ev(rec, 0, EvProcStart, 0, 0, "p")
	ev(rec, 1, EvRendezvous, 0, 1, "c")
	ev(rec, 2, EvProcStop, 0, 0, "done")
	rec.Sync()
	srv.SetRecorder(rec)
	srv.SetStatus(func(w io.Writer) { fmt.Fprintln(w, "program: test.esp") })
	srv.SetProgress(func(w io.Writer) { fmt.Fprintln(w, "states 123") })

	code, body := get(t, base+"/metrics")
	if code != 200 || !strings.Contains(body, "test_total 42") {
		t.Errorf("/metrics = %d %q, want 200 with test_total 42", code, body)
	}

	code, body = get(t, base+"/metrics.json")
	if code != 200 || !strings.Contains(body, "test_total") {
		t.Errorf("/metrics.json = %d %q", code, body)
	}

	code, body = get(t, base+"/statusz")
	if code != 200 || !strings.Contains(body, "uptime:") || !strings.Contains(body, "program: test.esp") {
		t.Errorf("/statusz = %d %q", code, body)
	}

	code, body = get(t, base+"/progress")
	if code != 200 || !strings.Contains(body, "states 123") {
		t.Errorf("/progress = %d %q", code, body)
	}

	code, body = get(t, base+"/trace?last=2")
	if code != 200 {
		t.Fatalf("/trace = %d %q", code, body)
	}
	if n, err := ValidateChromeTrace([]byte(body)); err != nil || n == 0 {
		t.Errorf("/trace body invalid (%d events): %v\n%s", n, err, body)
	}

	if code, _ := get(t, base+"/trace?last=bogus"); code != 400 {
		t.Errorf("/trace?last=bogus = %d, want 400", code)
	}

	code, body = get(t, base+"/")
	if code != 200 || !strings.Contains(body, "/metrics") {
		t.Errorf("index = %d %q", code, body)
	}
}

func TestServerWithoutSources(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()
	for _, path := range []string{"/metrics", "/progress", "/trace"} {
		if code, _ := get(t, base+path); code != 503 {
			t.Errorf("%s with no source = %d, want 503", path, code)
		}
	}
}
