package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os/exec"
	"path/filepath"
	"runtime"
	"time"

	"github.com/euastar/euastar/internal/energy"
	"github.com/euastar/euastar/internal/experiment"
	"github.com/euastar/euastar/internal/telemetry"
	"github.com/euastar/euastar/internal/workload"
)

// Figure 2 runs every cell through the baseline and the four compared
// schemes.
const fig2SchemesPerCell = 5

// paperConfig is input k of a workload seed: the Figure 2 setup on the
// Table 1 applications (loads 0.2–1.8, energy E1, sequential runner),
// replicated over three simulation seeds of its own. Input 0 of workload
// seed 1 runs seeds 1..3, euasim's default.
func paperConfig(seed uint64, k int, horizon float64) experiment.Config {
	m := 3 * inputSeed(seed, k)
	return experiment.Config{
		Energy:  energy.E1,
		Loads:   experiment.DefaultLoads(),
		Seeds:   []uint64{m - 2, m - 1, m},
		Horizon: horizon,
		Apps:    workload.Table1(),
		Workers: 1,
	}
}

// renderFig2 runs the sweep and renders it exactly as euasim -exp fig2
// prints it on standard output.
func renderFig2(cfg experiment.Config) ([]experiment.Row, []byte, error) {
	rows, err := experiment.Figure2(cfg)
	if err != nil {
		return nil, nil, err
	}
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "== fig2 (%s) ==\n", experiment.Describe(cfg))
	if err := experiment.WriteRows(&buf, fmt.Sprintf("Figure 2 (%s)", cfg.Energy), rows); err != nil {
		return nil, nil, err
	}
	return rows, buf.Bytes(), nil
}

func hashOf(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// cellClock is a cell store that stores nothing: the sweep reports each
// finished (load, seed) cell to it, and it records the time since the
// previous report. With one worker the cells run in order, so each gap is
// one cell's latency. A store makes the sweep marshal every cell, which
// euasim -exp fig2 does not, so only the sweeps that time cells carry one.
type cellClock struct {
	last time.Time
	lat  []float64
}

func (c *cellClock) Lookup(string, string, int) (json.RawMessage, bool) { return nil, false }

func (c *cellClock) Save(string, string, int, json.RawMessage) error {
	now := time.Now()
	c.lat = append(c.lat, now.Sub(c.last).Seconds())
	c.last = now
	return nil
}

// rowLatencies sums cell latencies into per-load row latencies: the cells
// of one load (one per seed) are consecutive.
func rowLatencies(cells []float64, seeds int) []float64 {
	var rows []float64
	for i := 0; i+seeds <= len(cells); i += seeds {
		var sum float64
		for _, l := range cells[i : i+seeds] {
			sum += l
		}
		rows = append(rows, sum)
	}
	return rows
}

func runPaperSweep(o options, r *report) error {
	var inputs []experiment.Config
	var setups []hostTime
	for i := 0; i < setupReps; i++ {
		r.probe.run()
		m := r.startMeter()
		inputs = inputs[:0]
		for k := 0; k < poolSize; k++ {
			inputs = append(inputs, paperConfig(o.seed, k, 1))
		}
		warm := inputs[0]
		warm.Horizon = 0.1
		if _, _, err := renderFig2(warm); err != nil {
			r.fail("warm-up: %v", err)
		}
		setups = append(setups, m.stop().wall)
	}

	// Untraced runs alternate plain sweeps, which give wall_s, cpu_s,
	// alloc_mb and jobs_per_s, with sweeps that time their cells through
	// a cellClock, which give the ack (cell) and done (load row)
	// latencies. Traced runs alternate plain and traced sweeps.
	var (
		tr      *tracer
		plain   []sample
		cellLat [][]hostTime // per cell-timed sweep, its cell latencies
		hashes  = map[int]string{}
		runs    int
		cov     coverage
		sweepS  float64
	)
	if o.trace {
		tr = newTracer()
	}
	phase := time.Now()
	for i := 0; measuring(o, phase, r, len(plain) >= 3 && (o.trace || len(cellLat) >= 3) && !cov.short(o)); i++ {
		r.attempt++
		r.probe.run()
		k := inputIndex(o, i)
		op := inputs[k]
		traceOp := o.trace && i%2 == 1
		var clock *cellClock
		if !o.trace && i%2 == 1 {
			clock = &cellClock{}
			op.Store = clock
		}
		var reg *telemetry.Registry
		var opTr *tracer
		var rtBefore runtimeStats
		if traceOp {
			reg = telemetry.NewRegistry()
			op.Telemetry = reg
			opTr = tr
			rtBefore = readRuntime()
		}
		m := r.startMeter()
		if clock != nil {
			clock.last = m.t0
		}
		id := opTr.begin("experiment.Figure2", fmt.Sprintf("op%d", i), 0)
		_, out, err := renderFig2(op)
		spanS := opTr.end(id)
		s := m.stop()
		if err != nil {
			r.failed++
			r.fail("op %d: %v", i, err)
			continue
		}
		// Every repetition of an input, traced, timed or plain, renders
		// the same bytes.
		h := hashOf(out)
		if prev, ok := hashes[k]; !ok {
			hashes[k] = h
		} else if h != prev {
			r.failed++
			r.fail("op %d (input %d, traced=%v, timed=%v): output sha256 %s differs from the input's earlier %s",
				i, k, traceOp, clock != nil, h, prev)
		}
		switch {
		case clock != nil:
			lat := make([]hostTime, len(clock.lat))
			for j, l := range clock.lat {
				lat[j] = m.at(l)
			}
			cellLat = append(cellLat, lat)
		case !traceOp:
			cov.untraced(k, s)
			plain = append(plain, s)
			runs += len(op.Loads) * len(op.Seeds) * fig2SchemesPerCell
		default:
			sc, err := registryScrape(reg)
			if err != nil {
				return err
			}
			if cov.traced(k, s, sc, rtBefore, readRuntime()) {
				sweepS += spanS
			}
		}
	}
	r.probe.run() // the probe after the last op
	r.e2e["setup_s"] = median(r.normAll(setups))
	addOpMetrics(r, plain)
	if !o.trace {
		r.e2e["jobs_per_s"] = ratio(float64(runs), busy(r, plain))
		// A sweep's slowest cells and rows come from its heaviest draws,
		// so the run reports the median over its timed sweeps of each
		// sweep's percentile: one slow sweep cannot move it.
		var cellP50, cellP99, rowP50, rowP90 []float64
		for _, ts := range cellLat {
			lat := r.normAll(ts)
			rows := rowLatencies(lat, len(inputs[0].Seeds))
			cellP50 = append(cellP50, quantile(lat, 0.50))
			cellP99 = append(cellP99, quantile(lat, 0.99))
			rowP50 = append(rowP50, quantile(rows, 0.50))
			rowP90 = append(rowP90, quantile(rows, 0.90))
		}
		r.e2e["ack_p50_ms"] = median(cellP50) * 1e3
		r.e2e["ack_p99_ms"] = median(cellP99) * 1e3
		r.e2e["done_p50_ms"] = median(rowP50) * 1e3
		r.e2e["done_p90_ms"] = median(rowP90) * 1e3
		r.e2e["live_heap_mb"] = sweepHeapMB(inputs[0])
		r.note("sweeps: %d plain, %d cell-timed", len(plain), len(cellP50))
		r.note("per cell-timed sweep, s: cell p50 %s, cell p99 %s, row p50 %s, row p90 %s",
			fmtList(cellP50), fmtList(cellP99), fmtList(rowP50), fmtList(rowP90))
	} else {
		var decide float64
		for _, s := range schemeSlugs {
			decide += addSchedLayer(r, cov.sc, s.slug, s.label, traceInputs)
		}
		addEngineLayer(r, cov.sc, traceInputs)
		sweepS /= traceInputs
		r.layer["experiment.sweep_s"] = sweepS
		r.layer["engine.ns_per_event"] = ratio(sweepS, engineEvents(cov.sc)/traceInputs) * 1e9
		r.layer["engine.rest_s"] = sweepS - decide
		cov.report(r)
		if err := writeSpans(o, tr, r); err != nil {
			return err
		}
	}
	r.note("input 0 output sha256 %s; %d inputs run", hashes[0], len(hashes))
	return checkPaperSweep(o, r, hashes[0])
}

// sweepHeapMB is the heap that one sweep's result holds: the rows
// Figure2 returns and their rendering, measured as the live heap (after a
// forced GC) with them minus without them.
func sweepHeapMB(cfg experiment.Config) float64 {
	rows, out, err := renderFig2(cfg)
	if err != nil {
		return 0 // the measured sweeps of this input already failed
	}
	with := liveHeapMB()
	runtime.KeepAlive(rows)
	runtime.KeepAlive(out)
	return with - liveHeapMB()
}

// Reference sweep checked on every run, whatever the seed: simulation
// seeds 1..2 at a 0.25 s horizon, compared byte for byte with euasim's
// standard output and with its pinned hash.
const (
	refSeeds   = 2
	refHorizon = 0.25
)

func checkPaperSweep(o options, r *report, measured string) error {
	if want, ok := pinnedSweep[o.seed]; ok && measured != want {
		r.fail("seed %d input 0: output sha256 %s, pinned %s", o.seed, measured, want)
	}
	ref := paperConfig(1, 0, refHorizon)
	ref.Seeds = ref.Seeds[:refSeeds]
	_, lib, err := renderFig2(ref)
	if err != nil {
		r.fail("reference sweep: %v", err)
		return nil
	}
	if h := hashOf(lib); h != pinnedRefSweep {
		r.fail("reference sweep sha256 %s, pinned %s", h, pinnedRefSweep)
	}
	euasim := filepath.Join(o.buildDir, "bin", "euasim")
	cmd := exec.Command(euasim, "-exp", "fig2", "-seeds", fmt.Sprint(refSeeds),
		"-horizon", fmt.Sprint(refHorizon), "-workers", "1")
	cli, err := cmd.Output()
	if err != nil {
		r.fail("run %s: %v", euasim, err)
		return nil
	}
	// euasim ends every experiment's block with an empty line.
	if !bytes.Equal(cli, append(lib, '\n')) {
		r.fail("euasim -exp fig2 output (sha256 %s) differs from the library rendering (sha256 %s)",
			hashOf(cli), hashOf(lib))
	}
	return nil
}
