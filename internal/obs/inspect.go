package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"
)

// Inspector serves a live, read-only view of an in-flight run over HTTP:
// the metrics-registry snapshot, the memory-attribution report, and a small
// status document. It exists for the long runs — a 90-warehouse jbbsim
// point can take minutes of wall time, and "is it making progress, and what
// is it doing to the memory system right now" should not require waiting
// for the final artifacts.
//
// The simulator is single-threaded per run and must stay deterministic, so
// HTTP handlers never touch live simulator state. Instead the sim thread
// calls Publish at slice boundaries, which renders the registry and
// attribution tables into byte snapshots under a mutex; handlers serve the
// last published bytes. Publishing is wall-time throttled so the sim thread
// pays the rendering cost at most a few times per second regardless of
// slice rate, and wall time never feeds back into simulation state.
//
// A nil *Inspector is valid and disabled.
type Inspector struct {
	label string
	hb    *Heartbeat
	start time.Time
	ln    net.Listener
	srv   *http.Server

	mu      sync.Mutex
	bodies  [numPages][]byte // the last published body per page; nil before
	dumpReq bool
	note    string
	pubs    uint64
	lastPub time.Time
}

// The published pages, indexes into pages and Inspector.bodies.
const (
	pageMetrics = iota
	pageAttr
	pageLatency
	pageOverload
	pageFlight
	numPages
)

// pages is the one table of published pages: each is served by handlePage
// from the last bytes set for it, or its empty body before that. /status
// always lists a page marked always, and any other once it is live.
var pages = [numPages]struct {
	path, contentType, empty, desc string
	always                         bool
}{
	pageMetrics:  {"/metrics", "text/plain; charset=utf-8", "# no metrics snapshot published yet\n", "metrics-registry snapshot (text)", true},
	pageAttr:     {"/attr", "application/json", "{}\n", "memory-attribution report (JSON)", true},
	pageLatency:  {"/latency", "application/json", "{}\n", "request-latency/SLO report (JSON)", false},
	pageOverload: {"/overload", "application/json", "{}\n", "open-system overload state: queues, limiters, shed counters (JSON)", false},
	pageFlight:   {"/flight", "application/json", "{}\n", "flight-recorder status: ring occupancy, dumps written (JSON)", false},
}

// publishInterval is the minimum wall time between non-forced Publish
// renders. Handlers are unaffected; they only ever read published bytes.
const publishInterval = 250 * time.Millisecond

// inspectTopN bounds the hot-line/object tables rendered for the live
// view; the final report honors the -attr-top flag instead.
const inspectTopN = 20

// StartInspector listens on addr (":0" picks a free port) and serves until
// Close. label names the run in /status; hb, when non-nil, contributes
// run/cycle progress counters (its fields are atomics, so reading them from
// handler goroutines is race-free).
func StartInspector(addr, label string, hb *Heartbeat) (*Inspector, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	in := &Inspector{label: label, hb: hb, start: time.Now(), ln: ln}
	mux := http.NewServeMux()
	mux.HandleFunc("/", in.handleIndex)
	for i := range pages {
		mux.HandleFunc(pages[i].path, in.handlePage(i))
	}
	mux.HandleFunc("/flight/dump", in.handleFlightDump)
	mux.HandleFunc("/status", in.handleStatus)
	in.srv = &http.Server{Handler: mux}
	go in.srv.Serve(ln)
	return in, nil
}

// Addr returns the bound listen address (useful with ":0").
func (in *Inspector) Addr() string {
	if in == nil || in.ln == nil {
		return ""
	}
	return in.ln.Addr().String()
}

// Close stops serving. Published snapshots are dropped with it.
func (in *Inspector) Close() error {
	if in == nil || in.srv == nil {
		return nil
	}
	return in.srv.Close()
}

// Publish renders ob's registry snapshot and attribution report and makes
// them the live view. Call it from the simulation thread at slice
// boundaries; unless force is set, calls within publishInterval of the last
// render return immediately so the hot loop is not billed for rendering.
// Use force for the final publish so the end-of-run state is visible.
func (in *Inspector) Publish(ob *Observer, force bool) {
	if in == nil || ob == nil {
		return
	}
	now := time.Now()
	in.mu.Lock()
	if !force && now.Sub(in.lastPub) < publishInterval {
		in.mu.Unlock()
		return
	}
	in.lastPub = now
	in.mu.Unlock()

	// Render outside the lock: handlers keep serving the previous snapshot
	// while the new one is built.
	var metrics []byte
	if ob.Registry != nil {
		var sb strings.Builder
		ob.Registry.Snapshot().WriteTo(&sb)
		metrics = []byte(sb.String())
	}
	var attrJSON []byte
	if ob.Attr != nil {
		if buf, err := json.MarshalIndent(ob.Attr.BuildReport(inspectTopN), "", "  "); err == nil {
			attrJSON = append(buf, '\n')
		}
	}
	var latJSON []byte
	if ob.LatencyReport != nil {
		latJSON = ob.LatencyReport()
	}

	in.mu.Lock()
	in.bodies[pageMetrics] = metrics
	in.bodies[pageAttr] = attrJSON
	in.bodies[pageLatency] = latJSON
	in.pubs++
	in.mu.Unlock()
}

// SetOverload publishes an open-system overload snapshot (JSON: per-node
// queue depth and brown-out level, per-shard AIMD limiter state) as the
// /overload page. The caller renders the bytes on its simulation thread at
// tick boundaries; nil clears the page.
func (in *Inspector) SetOverload(buf []byte) { in.set(pageOverload, buf) }

// SetFlight publishes the flight recorder's status document (JSON: ring
// occupancy, snapshot cadence, dumps written so far) as the /flight page.
// The recorder renders the bytes on the simulation thread; nil clears.
func (in *Inspector) SetFlight(buf []byte) { in.set(pageFlight, buf) }

// set makes buf the body of page i; nil clears it to the empty body.
func (in *Inspector) set(i int, buf []byte) {
	if in == nil {
		return
	}
	in.mu.Lock()
	in.bodies[i] = buf
	in.mu.Unlock()
}

// TakeDumpRequest consumes a pending /flight/dump request. The simulation
// thread polls it at slice boundaries, so the dump itself — like every
// other state read — happens on the deterministic thread, never in an HTTP
// handler.
func (in *Inspector) TakeDumpRequest() bool {
	if in == nil {
		return false
	}
	in.mu.Lock()
	req := in.dumpReq
	in.dumpReq = false
	in.mu.Unlock()
	return req
}

// SetNote attaches a free-form line to /status — the drivers use it for
// watchdog reports and phase announcements.
func (in *Inspector) SetNote(note string) {
	if in == nil {
		return
	}
	in.mu.Lock()
	in.note = note
	in.mu.Unlock()
}

func (in *Inspector) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "%s inspector\n\n", in.label)
	for _, p := range pages {
		fmt.Fprintf(w, "%-9s %s\n", p.path, p.desc)
	}
	fmt.Fprint(w, "/flight/dump  request a post-mortem dump at the next slice boundary\n/status   run status (JSON)\n")
}

// handlePage serves page i's last published body, or its empty body.
func (in *Inspector) handlePage(i int) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		in.mu.Lock()
		body := in.bodies[i]
		in.mu.Unlock()
		w.Header().Set("Content-Type", pages[i].contentType)
		if body == nil {
			body = []byte(pages[i].empty)
		}
		w.Write(body)
	}
}

func (in *Inspector) handleFlightDump(w http.ResponseWriter, _ *http.Request) {
	in.mu.Lock()
	in.dumpReq = true
	in.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "flight dump requested; the bundle is written at the next slice boundary")
}

func (in *Inspector) handleStatus(w http.ResponseWriter, _ *http.Request) {
	in.mu.Lock()
	note := in.note
	pubs := in.pubs
	last := in.lastPub
	var listed []string
	for i, p := range pages {
		if p.always || in.bodies[i] != nil {
			listed = append(listed, p.path)
		}
	}
	in.mu.Unlock()

	st := map[string]any{
		"label":        in.label,
		"wall_seconds": time.Since(in.start).Seconds(),
		"publishes":    pubs,
		"pages":        append(listed, "/status"),
	}
	if !last.IsZero() {
		st["last_publish_age_seconds"] = time.Since(last).Seconds()
	}
	if note != "" {
		st["note"] = note
	}
	if in.hb != nil {
		st["runs"] = in.hb.Runs.Load()
		if in.hb.TotalRuns > 0 {
			st["total_runs"] = in.hb.TotalRuns
		}
		cy := in.hb.SimCycles.Load()
		st["sim_cycles"] = cy
		st["sim_millis"] = float64(cy) / (CyclesPerMicrosecond * 1e3)
	}
	w.Header().Set("Content-Type", "application/json")
	buf, _ := json.MarshalIndent(st, "", "  ")
	w.Write(append(buf, '\n'))
}
