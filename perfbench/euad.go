package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/euastar/euastar"
	"github.com/euastar/euastar/internal/config"
	"github.com/euastar/euastar/internal/cpu"
	"github.com/euastar/euastar/internal/energy"
	"github.com/euastar/euastar/internal/engine"
	"github.com/euastar/euastar/internal/experiment"
	"github.com/euastar/euastar/internal/metrics"
	"github.com/euastar/euastar/internal/server"
)

// The euad-mixed service shape: a two-worker daemon, two closed-loop
// clients (each its own tenant on one keep-alive connection) that keep at
// most euadWindow accepted jobs outstanding before long-polling the
// oldest.
const (
	euadWorkers    = 2
	euadClients    = 2
	euadWindow     = 3
	euadPrepRounds = 128 // rounds written to the journal each setup recovers
	euadPollWait   = "5s"
)

// infeasibleDoc is a task set the admission analyzer proves infeasible:
// a simulate job for it is refused with 422 before it is queued.
const infeasibleDoc = `{"tasks":[{"id":1,"name":"hog","a":1,"window_ms":10,"tuf":{"shape":"step","umax":10},"mean_cycles":1e10,"variance_cycles":1e6,"nu":1,"rho":0.9}]}`

type opKind int

const (
	opAnalyze  opKind = iota // feasible analyze → 202, done
	opReject                 // infeasible simulate → 422 rejected
	opSimulate               // small simulate → 202, done
	opSweep                  // small checkpointed fig2 sweep → 202, done
	opReplay                 // resubmission of an earlier accepted job → 200
)

func (k opKind) String() string {
	return [...]string{"analyze", "reject", "simulate", "sweep", "replay"}[k]
}

// plannedOp is one submission of a client's round. Plans cycle with the
// round (see planClient) and run under fresh job IDs each time.
type plannedOp struct {
	kind     opKind
	spec     server.JobSpec // ID filled per round
	replayOf int            // opReplay: index of the replayed op
}

// sweepSpec is the checkpointed sweep every round submits: Figure 2 over
// two loads, one seed, a 0.05 s horizon.
var sweepSpec = server.JobSpec{Kind: server.KindSweep, Experiment: "fig2", Loads: []float64{0.6, 1.4}, Seeds: 1, Horizon: 0.05}

var simSchemes = []string{"EUA*", "ccEDF", "laEDF", "laEDF-NA", "EDF-fm"}

// planTemplate is the fixed order of every client's round. It is the
// smallest mix that reaches every layer the workload measures, one
// submission per path: a simulate job at load 0.6 (admission verdict
// accept), an analyze job, an infeasible simulate job (422 fast reject,
// no fsync), a simulate job at load 1.2 (must-simulate), a checkpointed
// sweep (checkpoint rewrites), and a replay of the round's first job (200,
// no fsync). The proportions are an assumption, not recorded euad traffic.
var planTemplate = []struct {
	kind     opKind
	load     float64 // simulate: the load the task set is scaled to
	replayOf int     // replay: index of the replayed op
}{
	{kind: opSimulate, load: 0.6}, {kind: opAnalyze}, {kind: opReject},
	{kind: opSimulate, load: 1.2}, {kind: opSweep}, {kind: opReplay, replayOf: 0},
}

// planCycle is how many rounds the plans cycle through: the simulate
// jobs' schemes advance by one each round, so every simulate slot of
// every client runs every scheme once per cycle.
var planCycle = len(simSchemes)

// planClient fills client c's template for round r of the cycle. The
// analyze load, the scheme a rejected job names and each simulate slot's
// simulation seed are drawn from the seed, the same every round.
func planClient(seed uint64, c, r int, tasksDoc []byte) []plannedOp {
	draw := uint64(0)
	next := func(n int) int {
		draw++
		return int(splitmix(seed, uint64(c)<<32|draw) % uint64(n))
	}
	ops := make([]plannedOp, len(planTemplate))
	sims := 0
	for i, t := range planTemplate {
		op := plannedOp{kind: t.kind, replayOf: t.replayOf}
		switch t.kind {
		case opAnalyze:
			op.spec = server.JobSpec{Kind: server.KindAnalyze, Tasks: tasksDoc, Load: []float64{0.4, 0.7}[next(2)]}
		case opReject:
			op.spec = server.JobSpec{Kind: server.KindSimulate, Tasks: json.RawMessage(infeasibleDoc),
				Scheme: simSchemes[next(len(simSchemes))]}
		case opSimulate:
			op.spec = server.JobSpec{Kind: server.KindSimulate, Tasks: tasksDoc,
				Scheme: simSchemes[(r+2*c+sims)%len(simSchemes)],
				Load:   t.load, Seed: uint64(1 + next(8))}
			sims++
		case opSweep:
			op.spec = sweepSpec
		}
		ops[i] = op
	}
	return ops
}

// expected holds the locally computed result of every distinct job spec
// a plan submits, keyed by the spec with its ID cleared.
type expected map[string]json.RawMessage

func specKey(s server.JobSpec) string {
	s.ID = ""
	b, _ := json.Marshal(s) // a JobSpec always marshals
	return string(b)
}

// simSummary is the part of a simulate result checked against a local
// engine.Run of the same spec.
type simSummary struct {
	Scheduler          string  `json:"scheduler"`
	AccruedUtility     float64 `json:"accrued_utility"`
	MaxPossibleUtility float64 `json:"max_possible_utility"`
	TotalEnergy        float64 `json:"total_energy"`
	BusyTime           float64 `json:"busy_time"`
	EndTime            float64 `json:"end_time"`
	Switches           int     `json:"switches"`
	Released           int     `json:"released"`
	Completed          int     `json:"completed"`
	Aborted            int     `json:"aborted"`
	CriticalMisses     int     `json:"critical_misses"`
}

type analyzeSummary struct {
	Tasks        int     `json:"tasks"`
	Schedulable  bool    `json:"schedulable"`
	Witness      float64 `json:"witness"`
	MinFrequency float64 `json:"min_frequency"`
	Feasible     bool    `json:"feasible"`
}

// localResult computes what the daemon must answer for spec, without the
// daemon: the same public entry points it calls, in-process.
func localResult(spec server.JobSpec) (json.RawMessage, error) {
	ft := cpu.PowerNowK6()
	switch spec.Kind {
	case server.KindSweep:
		cfg := experiment.Config{Energy: energy.E1, Loads: spec.Loads, Horizon: spec.Horizon, Workers: 1}
		for i := 1; i <= spec.Seeds; i++ {
			cfg.Seeds = append(cfg.Seeds, uint64(i))
		}
		rows, err := experiment.Figure2(cfg)
		if err != nil {
			return nil, err
		}
		var text bytes.Buffer
		if err := experiment.WriteRows(&text, "Figure 2 (E1)", rows); err != nil {
			return nil, err
		}
		return json.Marshal(text.String())
	}
	ts, err := config.Load(bytes.NewReader(spec.Tasks))
	if err != nil {
		return nil, err
	}
	if spec.Load > 0 {
		ts = ts.ScaleToLoad(spec.Load, ft.Max())
	}
	if spec.Kind == server.KindAnalyze {
		var a analyzeSummary
		a.Tasks = len(ts)
		a.Schedulable, a.Witness = euastar.Schedulable(ts, ft.Max())
		a.MinFrequency, a.Feasible = euastar.MinimumFrequency(ts, ft)
		return json.Marshal(a)
	}
	var scheme experiment.Scheme
	for _, sc := range append(experiment.Figure2Schemes(), experiment.BaselineScheme()) {
		if sc.Name == spec.Scheme {
			scheme = sc
		}
	}
	if scheme.New == nil {
		return nil, fmt.Errorf("unknown scheme %q", spec.Scheme)
	}
	model, err := energy.NewPreset(energy.E1, ft.Max())
	if err != nil {
		return nil, err
	}
	res, err := engine.Run(engine.Config{
		Tasks: ts, Scheduler: scheme.New(), Freqs: ft, Energy: model,
		Horizon: 1, Seed: spec.Seed, AbortAtTermination: scheme.Abort,
	})
	if err != nil {
		return nil, err
	}
	rep := metrics.Analyze(res)
	return json.Marshal(simSummary{
		Scheduler: rep.Scheduler, AccruedUtility: rep.AccruedUtility,
		MaxPossibleUtility: rep.MaxPossibleUtility, TotalEnergy: rep.TotalEnergy,
		BusyTime: rep.BusyTime, EndTime: rep.EndTime, Switches: rep.Switches,
		Released: rep.Released, Completed: rep.Completed, Aborted: rep.Aborted,
		CriticalMisses: rep.CriticalMisses,
	})
}

// projectResult reduces a terminal job's result to the summary localResult
// computes for its kind.
func projectResult(kind opKind, raw json.RawMessage) (json.RawMessage, error) {
	switch kind {
	case opSweep:
		var sr server.SweepResult
		if err := json.Unmarshal(raw, &sr); err != nil {
			return nil, err
		}
		return json.Marshal(sr.Text)
	case opAnalyze:
		var a analyzeSummary
		if err := json.Unmarshal(raw, &a); err != nil {
			return nil, err
		}
		return json.Marshal(a)
	}
	var s simSummary
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, err
	}
	return json.Marshal(s)
}

// roundStats is what one client observed in one round.
type roundStats struct {
	ack, done []float64 // seconds: every submission; simulate submit→terminal
	timings   []server.JobTimings
	created   int // distinct jobs created and seen terminal
	attempted int
	failed    int
	problems  []string
}

func (s *roundStats) wrong(format string, args ...any) {
	s.failed++
	if len(s.problems) < 5 {
		s.problems = append(s.problems, fmt.Sprintf(format, args...))
	}
}

// client is one closed-loop tenant with its own keep-alive connection.
// Past deadline it stops waiting on the daemon and fails what is left.
type client struct {
	base     string
	tenant   string
	http     *http.Client
	want     expected
	deadline time.Time
}

func newClient(base string, c int, want expected, deadline time.Time) *client {
	return &client{
		base:   base,
		tenant: fmt.Sprintf("bench-%d", c),
		http: &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
			Timeout:   15 * time.Second,
		},
		want:     want,
		deadline: deadline,
	}
}

func (cl *client) do(req *http.Request) (int, []byte, error) {
	req.Header.Set(server.TenantHeader, cl.tenant)
	resp, err := cl.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

type pendingJob struct {
	id        string
	kind      opKind
	key       string
	submitted time.Time
}

// round submits plan once under IDs prefixed by prefix and waits until
// every accepted job is terminal.
func (cl *client) round(plan []plannedOp, prefix string, tr *tracer, parent int) roundStats {
	var st roundStats
	specs := make([]server.JobSpec, len(plan))
	var window []pendingJob
	for i, op := range plan {
		spec := op.spec
		wantStatus := http.StatusAccepted
		switch op.kind {
		case opReplay:
			spec = specs[op.replayOf]
			wantStatus = http.StatusOK
		case opReject:
			wantStatus = http.StatusUnprocessableEntity
		}
		if op.kind != opReplay {
			spec.ID = fmt.Sprintf("%s-%s-%d", prefix, cl.tenant, i)
		}
		specs[i] = spec
		body, _ := json.Marshal(spec) // a JobSpec always marshals
		req, err := http.NewRequest(http.MethodPost, cl.base+"/v1/jobs", bytes.NewReader(body))
		if err != nil {
			st.wrong("build request: %v", err)
			continue
		}
		st.attempted++
		id := tr.begin("client.submit", prefix, parent)
		start := time.Now()
		code, resp, err := cl.do(req)
		st.ack = append(st.ack, time.Since(start).Seconds())
		tr.end(id)
		switch {
		case err != nil:
			st.wrong("%s %s: %v", op.kind, spec.ID, err)
			continue
		case code != wantStatus:
			st.wrong("%s %s: status %d, want %d: %s", op.kind, spec.ID, code, wantStatus, resp)
			continue
		}
		switch op.kind {
		case opReject:
			var e struct {
				Error server.JobError `json:"error"`
			}
			if json.Unmarshal(resp, &e) != nil || e.Error.Code != server.CodeRejected {
				st.wrong("reject %s: body %s", spec.ID, resp)
				continue
			}
			st.created++
		case opReplay:
			var js server.JobStatus
			if json.Unmarshal(resp, &js) != nil || js.ID != spec.ID {
				st.wrong("replay %s: body %s", spec.ID, resp)
			}
		default:
			window = append(window, pendingJob{id: spec.ID, kind: op.kind, key: specKey(spec), submitted: start})
			if len(window) >= euadWindow {
				cl.await(window[0], prefix, tr, parent, &st)
				window = window[1:]
			}
		}
	}
	for _, p := range window {
		cl.await(p, prefix, tr, parent, &st)
	}
	return st
}

// await long-polls job p until the daemon reports it terminal, then
// checks its result against the local computation.
func (cl *client) await(p pendingJob, prefix string, tr *tracer, parent int, st *roundStats) {
	for attempt := 0; attempt < 3; attempt++ {
		if time.Now().After(cl.deadline) {
			st.wrong("poll %s: not terminal by the run's deadline", p.id)
			return
		}
		req, err := http.NewRequest(http.MethodGet, cl.base+"/v1/jobs/"+p.id+"?wait="+euadPollWait, nil)
		if err != nil {
			st.wrong("build poll: %v", err)
			return
		}
		st.attempted++
		id := tr.begin("client.poll", prefix, parent)
		code, resp, err := cl.do(req)
		tr.end(id)
		if err != nil || code != http.StatusOK {
			st.wrong("poll %s: status %d err %v: %s", p.id, code, err, resp)
			return
		}
		var js server.JobStatus
		if err := json.Unmarshal(resp, &js); err != nil {
			st.wrong("poll %s: %v", p.id, err)
			return
		}
		if !js.Terminal() {
			continue
		}
		if p.kind == opSimulate {
			st.done = append(st.done, time.Since(p.submitted).Seconds())
		}
		st.created++
		if js.Timings != nil {
			st.timings = append(st.timings, *js.Timings)
		}
		if js.State != server.StateDone {
			st.wrong("%s %s ended %s: %+v", p.kind, p.id, js.State, js.Error)
			return
		}
		got, err := projectResult(p.kind, js.Result)
		if err != nil {
			st.wrong("%s %s result: %v", p.kind, p.id, err)
			return
		}
		if want := cl.want[p.key]; !bytes.Equal(got, want) {
			st.wrong("%s %s result %s, local run gives %s", p.kind, p.id, got, want)
		}
		return
	}
	st.wrong("poll %s: not terminal after 3 long-polls", p.id)
}

// daemon is one running euad: the server core behind a loopback listener.
type daemon struct {
	srv *server.Server
	hs  *httptest.Server
}

func (d *daemon) close() {
	d.hs.Close()
	d.srv.Close()
}

// startDaemon opens a daemon over dir (recovering whatever journal it
// holds) and waits for its first /readyz 200.
func startDaemon(dir string, fs *timingFS, tr *tracer) (*daemon, error) {
	cfg := server.Config{DataDir: dir, Workers: euadWorkers}
	if fs != nil {
		cfg.FS = fs
	}
	id := tr.begin("jobstore.recover", "setup", 0)
	srv, err := server.New(cfg)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	d := &daemon{srv: srv, hs: httptest.NewServer(srv)}
	for i := 0; ; i++ {
		resp, err := d.hs.Client().Get(d.hs.URL + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if i == 100 {
			d.close()
			return nil, fmt.Errorf("daemon not ready: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// runClients runs round r on every client concurrently; plans[c] is
// client c's plan cycle.
func runClients(clients []*client, plans [][][]plannedOp, r int, prefix string, tr *tracer, parent int) []roundStats {
	out := make([]roundStats, len(clients))
	var wg sync.WaitGroup
	for i, cl := range clients {
		wg.Add(1)
		go func(i int, cl *client) {
			defer wg.Done()
			out[i] = cl.round(plans[i][r%planCycle], fmt.Sprintf("%s-c%d", prefix, i), tr, parent)
		}(i, cl)
	}
	wg.Wait()
	return out
}

func (d *daemon) metrics() (scrape, error) {
	resp, err := d.hs.Client().Get(d.hs.URL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return parseProm(body)
}

// copyDir copies the flat files of src (and of its checkpoints
// subdirectory) into a fresh dst.
func copyDir(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}

func runEuadMixed(o options, r *report) error {
	tasksDoc, err := os.ReadFile(filepath.Join(o.root, "examples", "quickstart", "workload.json"))
	if err != nil {
		return err
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, tasksDoc); err != nil {
		return err
	}
	plans := make([][][]plannedOp, euadClients)
	want := expected{}
	for c := range plans {
		for k := 0; k < planCycle; k++ {
			plan := planClient(o.seed, c, k, compact.Bytes())
			plans[c] = append(plans[c], plan)
			for _, op := range plan {
				if op.kind == opReplay || op.kind == opReject {
					continue
				}
				if _, ok := want[specKey(op.spec)]; ok {
					continue
				}
				// A failed local run leaves no expected result, so the
				// daemon's answer to the spec is counted wrong.
				res, err := localResult(op.spec)
				if err != nil {
					r.fail("local %s: %v", op.kind, err)
				}
				want[specKey(op.spec)] = res
			}
		}
	}

	work, err := os.MkdirTemp(o.buildDir, "euad-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)

	// The journal every setup recovers: a daemon's record of
	// euadPrepRounds rounds of the same mix.
	prepDir := filepath.Join(work, "prep")
	prep, err := startDaemon(prepDir, nil, nil)
	if err != nil {
		return err
	}
	prepClients := make([]*client, euadClients)
	for c := range prepClients {
		prepClients[c] = newClient(prep.hs.URL, c, want, o.deadline)
	}
	for i := 0; i < euadPrepRounds; i++ {
		for _, st := range runClients(prepClients, plans, i, fmt.Sprintf("prep%d", i), nil, 0) {
			for _, p := range st.problems {
				r.fail("journal preparation: %s", p)
			}
		}
	}
	for _, cl := range prepClients {
		cl.http.CloseIdleConnections()
	}
	prep.close()

	var fs *timingFS
	var tr *tracer
	if o.trace {
		fs, tr = newTimingFS(), newTracer()
	}
	var d *daemon
	var setups []hostTime
	warm := server.JobSpec{Kind: server.KindAnalyze, Tasks: compact.Bytes()}
	if want[specKey(warm)], err = localResult(warm); err != nil {
		r.fail("local analyze: %v", err)
	}
	for i := 0; i < setupReps; i++ {
		dir := filepath.Join(work, fmt.Sprintf("run%d", i))
		if err := copyDir(prepDir, dir); err != nil {
			return err
		}
		if d != nil {
			d.close()
		}
		r.probe.run()
		m := r.startMeter()
		if d, err = startDaemon(dir, fs, tr); err != nil {
			return err
		}
		warmClient := newClient(d.hs.URL, 0, want, o.deadline)
		st := warmClient.round([]plannedOp{{kind: opAnalyze, spec: warm}}, fmt.Sprintf("warm%d", i), nil, 0)
		setups = append(setups, m.stop().wall)
		warmClient.http.CloseIdleConnections()
		for _, p := range st.problems {
			r.fail("warm-up: %s", p)
		}
	}
	defer d.close()

	clients := make([]*client, euadClients)
	for c := range clients {
		clients[c] = newClient(d.hs.URL, c, want, o.deadline)
		defer clients[c].http.CloseIdleConnections()
	}

	var (
		untraced, traced []sample
		ack, done        []hostTime
		timings          []server.JobTimings
		created          int
		layers           scrape
		rtSum            runtimeStats
	)
	heap0 := liveHeapMB()
	phase := time.Now()
	lastProbe := time.Time{}
	for round := 0; measuring(o, phase, r, len(untraced) >= 3); round++ {
		// Rounds are short; probe the host about once a second.
		if time.Since(lastProbe) > time.Second {
			r.probe.run()
			lastProbe = time.Now()
		}
		traceRound := o.trace && round%2 == 1
		var before scrape
		var rtBefore runtimeStats
		var roundTr *tracer
		if traceRound {
			if before, err = d.metrics(); err != nil {
				return err
			}
			fs.on.Store(true)
			roundTr = tr
			rtBefore = readRuntime()
		}
		m := r.startMeter()
		id := roundTr.begin("round", fmt.Sprintf("round%d", round), 0)
		stats := runClients(clients, plans, round, fmt.Sprintf("m%d", round), roundTr, id)
		roundTr.end(id)
		s := m.stop()
		for _, st := range stats {
			r.attempt += st.attempted
			r.failed += st.failed
			for _, p := range st.problems {
				r.fail("round %d: %s", round, p)
			}
			if traceRound {
				timings = append(timings, st.timings...)
				continue
			}
			for _, l := range st.ack {
				ack = append(ack, m.at(l))
			}
			for _, l := range st.done {
				done = append(done, m.at(l))
			}
			created += st.created
		}
		if traceRound {
			fs.on.Store(false)
			rt := readRuntime()
			rtSum.add(rtBefore, rt)
			after, err := d.metrics()
			if err != nil {
				return err
			}
			layers = layers.plus(after.minus(before))
			traced = append(traced, s)
			continue
		}
		untraced = append(untraced, s)
	}
	r.probe.run() // the probe after the last round
	r.e2e["setup_s"] = median(r.normAll(setups))
	addOpMetrics(r, untraced)
	if !o.trace {
		heap1 := liveHeapMB()
		r.e2e["live_heap_mb"] = ratio(heap1-heap0, float64(created)) * 1000
		r.e2e["jobs_per_s"] = ratio(float64(created), busy(r, untraced))
		acks, dones := r.normAll(ack), r.normAll(done)
		r.e2e["ack_p50_ms"] = quantile(acks, 0.50) * 1e3
		r.e2e["ack_p99_ms"] = quantile(acks, 0.99) * 1e3
		r.e2e["done_p50_ms"] = quantile(dones, 0.50) * 1e3
		r.e2e["done_p90_ms"] = quantile(dones, 0.90) * 1e3
		r.note("rounds %d, submissions %d, simulate jobs timed %d, jobs created %d, retained heap %.2f MB",
			len(untraced), len(ack), len(done), created, heap1-heap0)
		if len(ack) < 1000 || len(done) < 100 {
			r.fail("too few samples for the reported percentiles: %d submissions, %d simulate jobs", len(ack), len(done))
		}
		return nil
	}
	n := len(traced)
	for _, s := range schemeSlugs {
		addSchedLayer(r, layers, s.slug, s.label, n)
	}
	addEngineLayer(r, layers, n)
	r.layer["admission.accept"] = layers.sum("euad_admission_verdicts_total", "verdict", "accept") / float64(n)
	r.layer["admission.reject"] = layers.sum("euad_admission_verdicts_total", "verdict", "reject") / float64(n)
	r.layer["admission.must_simulate"] = layers.sum("euad_admission_verdicts_total", "verdict", "must-simulate") / float64(n)
	r.layer["server.replayed"] = layers.sum("euad_jobs_replayed_total") / float64(n)
	rejected := layers.sum("euad_tenant_rejected_total")
	r.layer["tenancy.rejected"] = rejected / float64(n)
	if rejected != 0 {
		r.fail("tenancy rejected %v submissions; the workload must stay under every quota", rejected)
	}
	var qw, run, render []float64
	for _, t := range timings {
		qw = append(qw, t.QueueWaitSeconds*1e3)
		run = append(run, t.RunSeconds*1e3)
		render = append(render, t.RenderSeconds*1e3)
	}
	r.layer["server.queue_wait_ms.p50"] = quantile(qw, 0.5)
	r.layer["server.queue_wait_ms.p90"] = quantile(qw, 0.9)
	r.layer["server.run_ms.p50"] = quantile(run, 0.5)
	r.layer["server.run_ms.p90"] = quantile(run, 0.9)
	r.layer["server.render_ms.p50"] = quantile(render, 0.5)
	fs.addStorageLayer(r, n)
	r.layer["jobstore.recover_s"] = tr.total("jobstore.recover") / setupReps
	addRuntimeLayer(r, rtSum, n)
	// Rounds are many and alike, so the overhead is the difference of the
	// traced and untraced medians.
	var tw, uw []float64
	for _, s := range traced {
		tw = append(tw, s.wall.sec)
	}
	for _, s := range untraced {
		uw = append(uw, s.wall.sec)
	}
	r.layer["trace.overhead_s"] = median(tw) - median(uw)
	return writeSpans(o, tr, r)
}
