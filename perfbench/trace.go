package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/euastar/euastar/internal/telemetry"
)

// span is one timed call into a layer's public function, recorded from
// the benchmark's side of the call. Spans of one operation share Run.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent,omitempty"`
	Run    string  `json:"run"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	Self   float64 `json:"self_s"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced operations pass nil and pay only a nil check.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name, run string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Run: run, Name: name, Start: now})
	return len(t.spans)
}

// end closes span id and returns its duration in seconds.
func (t *tracer) end(id int) float64 {
	if t == nil || id == 0 {
		return 0
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	return s.End - s.Start
}

// total sums the durations of every span with the given name.
func (t *tracer) total(name string) float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum float64
	for _, s := range t.spans {
		if s.Name == name {
			sum += s.End - s.Start
		}
	}
	return sum
}

// finish derives every span's self time — its duration minus the part of
// it that its children's spans cover — and writes the spans and a per-name
// summary to path.
func (t *tracer) finish(path string) (map[string][2]float64, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := make(map[string][2]float64) // name -> {total, self}
	for i := range t.spans {
		s := &t.spans[i]
		s.Self = (s.End - s.Start) - covered(children[s.ID])
		agg := byName[s.Name]
		agg[0] += s.End - s.Start
		agg[1] += s.Self
		byName[s.Name] = agg
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return nil, err
		}
	}
	return byName, os.WriteFile(path, buf.Bytes(), 0o644)
}

// covered is the length of the union of the spans' intervals.
func covered(spans []span) float64 {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var sum, lo, hi float64
	open := false
	for _, s := range spans {
		switch {
		case !open:
			lo, hi, open = s.Start, s.End, true
		case s.Start > hi:
			sum += hi - lo
			lo, hi = s.Start, s.End
		case s.End > hi:
			hi = s.End
		}
	}
	if open {
		sum += hi - lo
	}
	return sum
}

// writeSpans finishes t into the build directory and notes the per-name
// totals and self times.
func writeSpans(o options, t *tracer, r *report) error {
	path := filepath.Join(o.buildDir, "spans", fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
	byName, err := t.finish(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		r.note("span %-22s total %.4fs self %.4fs", n, byName[n][0], byName[n][1])
	}
	r.note("spans written to %s", path)
	return nil
}

// traceInputs is how many inputs a traced simulation run's per-layer
// metrics cover: inputs 0..traceInputs-1, each run once untraced and
// then once traced. Fixing the set keeps the exact counts among them
// identical however fast the host is.
const traceInputs = 4

// coverage accumulates a traced simulation run: the registry scrapes and
// runtime counters of the covered traced operations, and per input the
// traced minus the untraced wall time as measured (the tracing overhead).
type coverage struct {
	sc       scrape
	rt       runtimeStats
	ops      int
	twin     map[int]float64 // input -> untraced wall of its latest run
	overhead []float64
}

func (c *coverage) untraced(k int, s sample) {
	if c.twin == nil {
		c.twin = map[int]float64{}
	}
	c.twin[k] = s.wall.sec
}

// traced records traced operation k and reports whether it is covered.
func (c *coverage) traced(k int, s sample, sc scrape, before, after runtimeStats) bool {
	if w, ok := c.twin[k]; ok {
		c.overhead = append(c.overhead, s.wall.sec-w)
	}
	if k >= traceInputs || c.ops >= traceInputs {
		return false
	}
	c.ops++
	c.sc = c.sc.plus(sc)
	c.rt.add(before, after)
	return true
}

// short reports whether a traced run still lacks covered operations.
func (c *coverage) short(o options) bool { return o.trace && c.ops < traceInputs }

// report adds the runtime counters per covered operation and the median
// tracing overhead.
func (c *coverage) report(r *report) {
	addRuntimeLayer(r, c.rt, c.ops)
	r.layer["trace.overhead_s"] = median(c.overhead)
}

// series is one sample line of the Prometheus text exposition format.
type series struct {
	name   string
	labels map[string]string
	value  float64
}

// scrape is a parsed exposition, keyed by the sample line's name and
// label block exactly as written (stable across scrapes of one registry).
type scrape map[string]series

// parseProm parses the text exposition format the telemetry package and
// euad's /metrics write.
func parseProm(text []byte) (scrape, error) {
	out := scrape{}
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		cut := strings.LastIndexByte(line, ' ')
		if cut < 0 {
			return nil, fmt.Errorf("metrics line %q", line)
		}
		key := line[:cut]
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		s := series{name: key, labels: map[string]string{}, value: v}
		if i := strings.IndexByte(key, '{'); i >= 0 {
			s.name = key[:i]
			if s.labels, err = parseLabels(strings.TrimSuffix(key[i+1:], "}")); err != nil {
				return nil, fmt.Errorf("metrics line %q: %w", line, err)
			}
		}
		out[key] = s
	}
	return out, sc.Err()
}

func parseLabels(block string) (map[string]string, error) {
	labels := map[string]string{}
	for block != "" {
		eq := strings.Index(block, `="`)
		if eq < 0 {
			return nil, fmt.Errorf("label block %q", block)
		}
		key := block[:eq]
		rest := block[eq+2:]
		var val strings.Builder
		i := 0
		for ; i < len(rest) && rest[i] != '"'; i++ {
			if rest[i] == '\\' && i+1 < len(rest) {
				i++
				if rest[i] == 'n' {
					val.WriteByte('\n')
					continue
				}
			}
			val.WriteByte(rest[i])
		}
		if i == len(rest) {
			return nil, fmt.Errorf("unterminated label value in %q", block)
		}
		labels[key] = val.String()
		block = strings.TrimPrefix(rest[i+1:], ",")
	}
	return labels, nil
}

// registryScrape renders an in-process registry through the same parser
// the euad /metrics scrapes use.
func registryScrape(reg *telemetry.Registry) (scrape, error) {
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		return nil, err
	}
	return parseProm(buf.Bytes())
}

// minus returns s − before, series by series (a series absent before
// counts from zero).
func (s scrape) minus(before scrape) scrape {
	out := make(scrape, len(s))
	for k, v := range s {
		v.value -= before[k].value
		out[k] = v
	}
	return out
}

// plus returns s + other, series by series.
func (s scrape) plus(other scrape) scrape {
	out := make(scrape, len(s))
	for k, v := range s {
		out[k] = v
	}
	for k, v := range other {
		cur, ok := out[k]
		if !ok {
			cur = v
			cur.value = 0
		}
		cur.value += v.value
		out[k] = cur
	}
	return out
}

// sum adds every series named name whose labels include all of match
// (alternating key, value).
func (s scrape) sum(name string, match ...string) float64 {
	var total float64
	for _, v := range s {
		if v.name != name {
			continue
		}
		ok := true
		for i := 0; i+1 < len(match); i += 2 {
			if v.labels[match[i]] != match[i+1] {
				ok = false
				break
			}
		}
		if ok {
			total += v.value
		}
	}
	return total
}

// schemeSlugs maps the per-layer metric slug of each measured scheme onto
// the scheme label its scheduler reports under.
var schemeSlugs = []struct{ slug, label string }{
	{"eua", "EUA*"},
	{"ccedf", "ccEDF"},
	{"laedf", "laEDF"},
	{"laedf-na", "laEDF-NA"},
	{"edf-fm", "EDF-fm"},
}

// addSchedLayer reports one scheme's euastar_sched_* series, per
// operation. It returns the scheme's decide seconds per operation.
func addSchedLayer(r *report, sc scrape, slug, label string, ops int) float64 {
	n := float64(ops)
	sum := sc.sum("euastar_sched_decide_seconds_sum", "scheme", label)
	count := sc.sum("euastar_sched_decide_seconds_count", "scheme", label)
	p := "sched." + slug + "."
	r.layer[p+"decide_s"] = sum / n
	r.layer[p+"decisions"] = count / n
	r.layer[p+"ns_per_decide"] = 0
	r.layer[p+"ready_mean"] = 0
	if count > 0 {
		r.layer[p+"ns_per_decide"] = sum / count * 1e9
		r.layer[p+"ready_mean"] = sc.sum("euastar_sched_ready_jobs_sum", "scheme", label) / count
	}
	if slug == "eua" {
		r.layer[p+"feas_iters"] = sc.sum("euastar_sched_feasibility_iterations_total", "scheme", label) / n
	}
	return sum / n
}

// addEngineLayer reports the engine's exact counts, per operation.
func addEngineLayer(r *report, sc scrape, ops int) {
	n := float64(ops)
	for _, kind := range []string{"arrival", "completion", "termination"} {
		r.layer["engine.events."+kind] = sc.sum("euastar_engine_events_total", "kind", kind) / n
	}
	r.layer["engine.decisions"] = sc.sum("euastar_engine_decisions_total") / n
	r.layer["engine.preemptions"] = sc.sum("euastar_engine_preemptions_total") / n
	r.layer["engine.aborts"] = sc.sum("euastar_engine_aborts_total") / n
	r.layer["engine.migrations"] = sc.sum("euastar_engine_migrations_total") / n
}

// engineEvents is the total processed-event count of a scrape.
func engineEvents(sc scrape) float64 { return sc.sum("euastar_engine_events_total") }
