// Package obsdiff compares two run artifacts — perfcheck BENCH_<n>.json
// reports, metrics-registry snapshots, folded simulated-cycle profiles, or
// any of the simulator's JSON reports (latency/SLO, attribution, figure
// reports) — and ranks the significant deltas, turning "the gate failed" or
// "this run looks different" into a short list of the counters, stacks, and
// quantiles that actually moved.
//
// Both inputs are flattened to {metric key -> numeric value} maps by a
// format auto-detector, diffed key-wise, filtered by a noise floor, and
// ranked by a score that weighs relative change by magnitude — a 2x swing
// on a million-cycle counter outranks a 2x swing on a count of three. The
// ranking is deterministic (score, then key), so triage reports are
// reproducible artifacts themselves.
package obsdiff

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Options tune the diff.
type Options struct {
	// MinRel is the noise floor: keys whose relative change is below it are
	// dropped (default 0.02 = 2%).
	MinRel float64
	// MinAbs drops keys whose larger side is below it (default 0: keep all).
	MinAbs float64
	// Top caps the ranked delta list (0 = keep all).
	Top int
}

func (o Options) withDefaults() Options {
	if o.MinRel == 0 {
		o.MinRel = 0.02
	}
	return o
}

// Delta is one ranked difference.
type Delta struct {
	Key string  `json:"key"`
	A   float64 `json:"a"`
	B   float64 `json:"b"`
	// Abs is B-A; Rel is (B-A)/|A| (±1 when the key exists on one side
	// only — see Note).
	Abs float64 `json:"abs_change"`
	Rel float64 `json:"rel_change"`
	// Score ranks: |Rel| weighted by the magnitude of the larger side.
	Score float64 `json:"score"`
	// Note marks keys present on one side only ("only in a"/"only in b").
	Note string `json:"note,omitempty"`
}

// Report is the triage document.
type Report struct {
	APath string `json:"a"`
	BPath string `json:"b"`
	// Kind is the detected artifact format: "bench", "json", "metrics", or
	// "profile".
	Kind string `json:"kind"`
	// KeysA/KeysB count the parsed metrics per side; Dropped is how many
	// differing keys the noise floor or Top cap removed.
	KeysA   int     `json:"keys_a"`
	KeysB   int     `json:"keys_b"`
	Dropped int     `json:"dropped"`
	Deltas  []Delta `json:"deltas"`
}

// DiffFiles parses and diffs two artifact files. Their detected formats
// must match — diffing a profile against a metrics snapshot is a usage
// error, not a very large regression.
func DiffFiles(aPath, bPath string, opt Options) (*Report, error) {
	aData, err := os.ReadFile(aPath)
	if err != nil {
		return nil, err
	}
	bData, err := os.ReadFile(bPath)
	if err != nil {
		return nil, err
	}
	aKind, aVals, err := ParseArtifact(aData)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", aPath, err)
	}
	bKind, bVals, err := ParseArtifact(bData)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", bPath, err)
	}
	if aKind != bKind {
		return nil, fmt.Errorf("artifact kinds differ: %s is %s, %s is %s", aPath, aKind, bPath, bKind)
	}
	rep := Diff(aVals, bVals, opt)
	rep.APath, rep.BPath, rep.Kind = aPath, bPath, aKind
	return rep, nil
}

// Diff ranks the differences between two flattened metric maps.
func Diff(a, b map[string]float64, opt Options) *Report {
	o := opt.withDefaults()
	rep := &Report{KeysA: len(a), KeysB: len(b)}

	keys := make(map[string]bool, len(a)+len(b))
	for k := range a {
		keys[k] = true
	}
	for k := range b {
		keys[k] = true
	}
	var deltas []Delta
	for k := range keys {
		av, inA := a[k]
		bv, inB := b[k]
		d := Delta{Key: k, A: av, B: bv, Abs: bv - av}
		switch {
		case !inA:
			d.Rel, d.Note = 1, "only in b"
		case !inB:
			d.Rel, d.Note = -1, "only in a"
		case av == bv:
			continue
		case av == 0:
			d.Rel = math.Copysign(1, bv)
		default:
			d.Rel = (bv - av) / math.Abs(av)
		}
		mag := math.Max(math.Abs(av), math.Abs(bv))
		if math.Abs(d.Rel) < o.MinRel || mag < o.MinAbs {
			rep.Dropped++
			continue
		}
		d.Score = math.Abs(d.Rel) * math.Log10(1+mag)
		deltas = append(deltas, d)
	}
	sort.Slice(deltas, func(i, j int) bool {
		if deltas[i].Score != deltas[j].Score {
			return deltas[i].Score > deltas[j].Score
		}
		return deltas[i].Key < deltas[j].Key
	})
	if o.Top > 0 && len(deltas) > o.Top {
		rep.Dropped += len(deltas) - o.Top
		deltas = deltas[:o.Top]
	}
	rep.Deltas = deltas
	return rep
}

// ParseArtifact detects an artifact's format and flattens it to numeric
// metrics. Supported: perfcheck BENCH_<n>.json ("bench"), any simulator
// JSON report ("json"), metrics-registry text snapshots ("metrics"), and
// folded-stack profiles ("profile").
func ParseArtifact(data []byte) (kind string, vals map[string]float64, err error) {
	trimmed := bytes.TrimSpace(data)
	if len(trimmed) == 0 {
		return "", nil, errors.New("empty artifact")
	}
	if trimmed[0] == '{' || trimmed[0] == '[' {
		var v any
		if err := json.Unmarshal(trimmed, &v); err != nil {
			return "", nil, fmt.Errorf("bad JSON: %w", err)
		}
		if m, ok := v.(map[string]any); ok {
			if b, ok := m["benchmarks"]; ok {
				vals = map[string]float64{}
				flatten("", b, vals)
				return "bench", vals, nil
			}
		}
		vals = map[string]float64{}
		flatten("", v, vals)
		return "json", vals, nil
	}
	return parseText(trimmed)
}

// flatten walks a decoded JSON value collecting numeric leaves under
// dotted/indexed paths.
func flatten(prefix string, v any, into map[string]float64) {
	switch t := v.(type) {
	case map[string]any:
		for k, c := range t {
			p := k
			if prefix != "" {
				p = prefix + "." + k
			}
			flatten(p, c, into)
		}
	case []any:
		for i, c := range t {
			flatten(fmt.Sprintf("%s[%d]", prefix, i), c, into)
		}
	case float64:
		if prefix != "" {
			into[prefix] = t
		}
	case bool:
		if prefix != "" {
			if t {
				into[prefix] = 1
			} else {
				into[prefix] = 0
			}
		}
	}
}

// parseText handles the two line-oriented formats: folded profiles
// ("comp;phase;stall 12345") and metrics-registry snapshots
// ("memsys.l2.miss    123" or histogram lines with k=v fields).
func parseText(data []byte) (string, map[string]float64, error) {
	vals := map[string]float64{}
	folded := false
	parsed := 0
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "==") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			continue
		}
		name := fields[0]
		if strings.Contains(fields[1], "=") {
			// Histogram line: name count=N mean=X p50=N ...
			for _, kv := range fields[1:] {
				eq := strings.IndexByte(kv, '=')
				if eq <= 0 {
					continue
				}
				if v, err := strconv.ParseFloat(kv[eq+1:], 64); err == nil {
					vals[name+"."+kv[:eq]] = v
					parsed++
				}
			}
			continue
		}
		if len(fields) == 2 {
			if v, err := strconv.ParseFloat(fields[1], 64); err == nil {
				vals[name] = v
				parsed++
				if strings.Contains(name, ";") {
					folded = true
				}
			}
		}
	}
	if parsed == 0 {
		return "", nil, errors.New("unrecognized artifact: no metric lines parsed")
	}
	if folded {
		return "profile", vals, nil
	}
	return "metrics", vals, nil
}

// Markdown renders the report as a triage table.
func (r *Report) Markdown() []byte {
	var b strings.Builder
	b.WriteString("# Run triage\n\n")
	fmt.Fprintf(&b, "Comparing `%s` (A) vs `%s` (B), format %s: %d vs %d metrics, %d significant deltas",
		r.APath, r.BPath, r.Kind, r.KeysA, r.KeysB, len(r.Deltas))
	if r.Dropped > 0 {
		fmt.Fprintf(&b, " (%d below the noise floor or past the cap)", r.Dropped)
	}
	b.WriteString(".\n\n")
	if len(r.Deltas) == 0 {
		b.WriteString("No significant differences.\n")
		return []byte(b.String())
	}
	b.WriteString("| rank | metric | A | B | change | note |\n|---|---|---|---|---|---|\n")
	for i, d := range r.Deltas {
		fmt.Fprintf(&b, "| %d | `%s` | %s | %s | %+.1f%% | %s |\n",
			i+1, d.Key, fmtVal(d.A), fmtVal(d.B), d.Rel*100, d.Note)
	}
	return []byte(b.String())
}

// JSON renders the report as machine-readable JSON.
func (r *Report) JSON() []byte {
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return []byte("{}\n")
	}
	return append(buf, '\n')
}

func fmtVal(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatFloat(v, 'f', 0, 64)
	}
	return strconv.FormatFloat(v, 'g', 6, 64)
}
