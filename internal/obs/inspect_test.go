package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/obs/attr"
)

func get(t *testing.T, url string) (string, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	return string(body), resp.Header.Get("Content-Type")
}

func TestInspectorServesPublishedState(t *testing.T) {
	hb := &Heartbeat{}
	hb.Runs.Store(3)
	hb.SimCycles.Store(5_000_000)
	in, err := StartInspector("127.0.0.1:0", "testrun", hb)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	base := "http://" + in.Addr()

	// Before any publish: endpoints respond with placeholders, not errors.
	if body, _ := get(t, base+"/metrics"); !strings.Contains(body, "no metrics") {
		t.Errorf("unpublished /metrics = %q", body)
	}
	if body, ct := get(t, base+"/attr"); strings.TrimSpace(body) != "{}" || ct != "application/json" {
		t.Errorf("unpublished /attr = %q (%s)", body, ct)
	}

	ob := &Observer{Registry: NewRegistry(), Attr: attr.NewCollector(attr.Options{Exact: true})}
	var n uint64 = 42
	ob.Registry.Counter("test.counter", func() uint64 { return n })
	ob.Attr.RecordGetS(0x4040, 0, true, 0)
	ob.Attr.RecordGetM(0x4040, 1, false, 0)
	in.SetNote("mid-run")
	in.Publish(ob, true)

	if body, _ := get(t, base+"/metrics"); !strings.Contains(body, "test.counter") || !strings.Contains(body, "42") {
		t.Errorf("/metrics missing published counter: %q", body)
	}
	body, _ := get(t, base+"/attr")
	var rep attr.Report
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatalf("/attr is not a report: %v", err)
	}
	if rep.Events != 2 || rep.LinesTracked != 1 {
		t.Errorf("/attr report = %d events / %d lines, want 2/1", rep.Events, rep.LinesTracked)
	}

	body, ct := get(t, base+"/status")
	if ct != "application/json" {
		t.Errorf("/status content type %q", ct)
	}
	var st map[string]any
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if st["label"] != "testrun" || st["note"] != "mid-run" {
		t.Errorf("/status = %v", st)
	}
	if st["runs"].(float64) != 3 || st["sim_cycles"].(float64) != 5_000_000 {
		t.Errorf("/status heartbeat counters = %v", st)
	}

	if body, _ := get(t, base+"/"); !strings.Contains(body, "/metrics") {
		t.Errorf("index = %q", body)
	}
}

// TestInspectorOverloadPage: /overload serves the last snapshot the driver
// set, appears in /status's page list only once live, and clears to the
// placeholder on nil.
func TestInspectorOverloadPage(t *testing.T) {
	in, err := StartInspector("127.0.0.1:0", "overload", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	base := "http://" + in.Addr()

	if body, ct := get(t, base+"/overload"); strings.TrimSpace(body) != "{}" || ct != "application/json" {
		t.Errorf("unpublished /overload = %q (%s)", body, ct)
	}
	body, _ := get(t, base+"/status")
	if strings.Contains(body, "/overload") {
		t.Error("/status lists /overload before anything was published")
	}

	in.SetOverload([]byte(`{"cycle":42,"nodes":[{"id":0,"queue":7}]}` + "\n"))
	if body, _ := get(t, base+"/overload"); !strings.Contains(body, `"queue":7`) {
		t.Errorf("/overload = %q", body)
	}
	if body, _ := get(t, base+"/status"); !strings.Contains(body, "/overload") {
		t.Error("/status does not list the live /overload page")
	}
	if body, _ := get(t, base+"/"); !strings.Contains(body, "/overload") {
		t.Error("index does not mention /overload")
	}

	in.SetOverload(nil)
	if body, _ := get(t, base+"/overload"); strings.TrimSpace(body) != "{}" {
		t.Errorf("cleared /overload = %q", body)
	}
	var nilIn *Inspector
	nilIn.SetOverload([]byte("x")) // must not panic
}

func TestInspectorThrottlesPublish(t *testing.T) {
	in, err := StartInspector("127.0.0.1:0", "throttle", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	ob := &Observer{Attr: attr.NewCollector(attr.Options{Exact: true})}
	ob.Attr.RecordGetS(0x40, 0, false, 0)
	in.Publish(ob, true)
	ob.Attr.RecordGetS(0x80, 0, false, 0)
	in.Publish(ob, false) // inside the throttle window: dropped
	body, _ := get(t, "http://"+in.Addr()+"/attr")
	var rep attr.Report
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Events != 1 {
		t.Errorf("throttled publish leaked through: %d events served, want 1", rep.Events)
	}
	in.Publish(ob, true) // forced: must land
	body, _ = get(t, "http://"+in.Addr()+"/attr")
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Events != 2 {
		t.Errorf("forced publish dropped: %d events served, want 2", rep.Events)
	}
}

func TestNilInspectorIsSafe(t *testing.T) {
	var in *Inspector
	in.Publish(&Observer{}, true)
	in.SetNote("x")
	if in.Addr() != "" {
		t.Error("nil inspector has an address")
	}
	if err := in.Close(); err != nil {
		t.Error(err)
	}
}

// TestInspectorPages covers every published page: the placeholder served
// before anything is published, the content type, the body after publish,
// and whether /status lists the page before and after.
func TestInspectorPages(t *testing.T) {
	cases := []struct {
		path, contentType, empty string
		listedEmpty              bool // /status lists the page before any publish
		publish                  func(in *Inspector)
		want                     string
	}{
		{"/metrics", "text/plain; charset=utf-8", "# no metrics snapshot published yet\n", true, func(in *Inspector) {
			ob := &Observer{Registry: NewRegistry()}
			ob.Registry.Counter("page.counter", func() uint64 { return 7 })
			in.Publish(ob, true)
		}, "page.counter"},
		{"/attr", "application/json", "{}\n", true, func(in *Inspector) {
			ob := &Observer{Attr: attr.NewCollector(attr.Options{Exact: true})}
			ob.Attr.RecordGetS(0x40, 0, false, 0)
			in.Publish(ob, true)
		}, `"events": 1`},
		{"/latency", "application/json", "{}\n", false, func(in *Inspector) {
			in.Publish(&Observer{LatencyReport: func() []byte { return []byte(`{"classes":3}` + "\n") }}, true)
		}, `"classes":3`},
		{"/overload", "application/json", "{}\n", false, func(in *Inspector) {
			in.SetOverload([]byte(`{"queue":7}` + "\n"))
		}, `"queue":7`},
		{"/flight", "application/json", "{}\n", false, func(in *Inspector) {
			in.SetFlight([]byte(`{"dumps":2}` + "\n"))
		}, `"dumps":2`},
	}
	listed := func(t *testing.T, base, path string) bool {
		t.Helper()
		body, _ := get(t, base+"/status")
		var st struct{ Pages []string }
		if err := json.Unmarshal([]byte(body), &st); err != nil {
			t.Fatal(err)
		}
		for _, p := range st.Pages {
			if p == path {
				return true
			}
		}
		return false
	}
	for _, c := range cases {
		t.Run(strings.TrimPrefix(c.path, "/"), func(t *testing.T) {
			in, err := StartInspector("127.0.0.1:0", "pages", nil)
			if err != nil {
				t.Fatal(err)
			}
			defer in.Close()
			base := "http://" + in.Addr()

			body, ct := get(t, base+c.path)
			if body != c.empty || ct != c.contentType {
				t.Errorf("unpublished %s = %q (%s), want %q (%s)", c.path, body, ct, c.empty, c.contentType)
			}
			if got := listed(t, base, c.path); got != c.listedEmpty {
				t.Errorf("before publish, /status lists %s = %v, want %v", c.path, got, c.listedEmpty)
			}
			if index, _ := get(t, base+"/"); !strings.Contains(index, c.path+" ") {
				t.Errorf("index does not mention %s", c.path)
			}

			c.publish(in)
			body, ct = get(t, base+c.path)
			if !strings.Contains(body, c.want) || ct != c.contentType {
				t.Errorf("published %s = %q (%s), want %q (%s)", c.path, body, ct, c.want, c.contentType)
			}
			if !listed(t, base, c.path) {
				t.Errorf("/status does not list the live %s page", c.path)
			}
		})
	}
	var nilIn *Inspector
	nilIn.SetFlight([]byte("x")) // must not panic
}
