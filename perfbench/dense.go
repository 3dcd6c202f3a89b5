package main

import (
	"fmt"
	"runtime"
	"time"

	"github.com/euastar/euastar/internal/cpu"
	"github.com/euastar/euastar/internal/energy"
	"github.com/euastar/euastar/internal/engine"
	"github.com/euastar/euastar/internal/metrics"
	"github.com/euastar/euastar/internal/rng"
	"github.com/euastar/euastar/internal/sched"
	"github.com/euastar/euastar/internal/sched/eua"
	"github.com/euastar/euastar/internal/sched/partition"
	"github.com/euastar/euastar/internal/task"
	"github.com/euastar/euastar/internal/telemetry"
	"github.com/euastar/euastar/internal/workload"
)

// Dense-overload input size: one 64-task set with A2's per-task shape
// (⟨2,P⟩ windows) scaled to load 1.6, simulated for half a second.
const (
	denseTasks   = 64
	denseLoad    = 1.6
	denseHorizon = 0.5
)

// denseSet synthesizes a dense-overload task set; input k of a workload
// seed uses simulation seed inputSeed(seed, k) for the set and its run.
func denseSet(seed uint64) (task.Set, error) {
	app := workload.A2()
	app.Name = fmt.Sprintf("dense-%d", denseTasks)
	app.Tasks = denseTasks
	ts, err := app.Synthesize(rng.New(seed*0x9e3779b9), workload.Options{})
	if err != nil {
		return nil, err
	}
	return ts.ScaleToLoad(denseLoad, cpu.PowerNowK6().Max()), nil
}

// denseRun simulates ts for horizon seconds, on one core with EUA* or on
// two cores with first-fit partitioned EUA*, aborting at termination
// times.
func denseRun(ts task.Set, seed uint64, horizon float64, cores int, reg *telemetry.Registry) (*engine.Result, error) {
	ft := cpu.PowerNowK6()
	model, err := energy.NewPreset(energy.E1, ft.Max())
	if err != nil {
		return nil, err
	}
	var s sched.Scheduler = eua.New()
	if cores > 1 {
		s = partition.New(cores, partition.FirstFit, func() sched.Scheduler { return eua.New() })
	}
	return engine.Run(engine.Config{
		Tasks:              ts,
		Scheduler:          s,
		Freqs:              ft,
		Energy:             model,
		Cores:              cores,
		Horizon:            horizon,
		Seed:               seed,
		AbortAtTermination: true,
		Telemetry:          reg,
	})
}

// outcome is the exact record of one run that every repetition, traced
// or not, must reproduce.
func outcome(res *engine.Result, rep *metrics.Report) string {
	return fmt.Sprintf("%s events=%d released=%d completed=%d aborted=%d utility=%v energy=%v migrations=%d decisions=%d preemptions=%d",
		rep.Scheduler, res.Events, rep.Released, rep.Completed, rep.Aborted,
		rep.AccruedUtility, rep.TotalEnergy, res.Migrations, res.Decisions, res.Preemptions)
}

// densePair is one operation: the 1-core run, then the 2-core run.
type densePair struct {
	results  [2]*engine.Result
	outcomes [2]string
	firstAt  float64 // seconds from the op's start to the 1-core report
	runS     float64 // traced: seconds inside engine.Run
	analyzeS float64 // traced: seconds inside metrics.Analyze
}

func runDensePair(ts task.Set, seed uint64, horizon float64, regs [2]*telemetry.Registry, tr *tracer, run string) (densePair, error) {
	var p densePair
	start := time.Now()
	for k, cores := range []int{1, 2} {
		id := tr.begin("engine.Run", run, 0)
		res, err := denseRun(ts, seed, horizon, cores, regs[k])
		p.runS += tr.end(id)
		if err != nil {
			return p, fmt.Errorf("%d-core run: %w", cores, err)
		}
		id = tr.begin("metrics.Analyze", run, 0)
		rep := metrics.Analyze(res)
		p.analyzeS += tr.end(id)
		p.results[k], p.outcomes[k] = res, outcome(res, rep)
		if k == 0 {
			p.firstAt = time.Since(start).Seconds()
		}
	}
	return p, nil
}

func runDenseOverload(o options, r *report) error {
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	var inputs []task.Set
	var setups []hostTime
	for i := 0; i < setupReps; i++ {
		r.probe.run()
		m := r.startMeter()
		inputs = inputs[:0]
		for k := 0; k < poolSize; k++ {
			id := tr.begin("workload.Synthesize", "setup", 0)
			set, err := denseSet(inputSeed(o.seed, k))
			tr.end(id)
			if err != nil {
				return err
			}
			inputs = append(inputs, set)
		}
		if _, err := runDensePair(inputs[0], inputSeed(o.seed, 0), 0.1, [2]*telemetry.Registry{}, nil, ""); err != nil {
			r.fail("warm-up: %v", err)
		}
		setups = append(setups, m.stop().wall)
	}

	var (
		untraced       []sample
		oneLat, twoLat []hostTime  // time in the 1-core and in the 2-core run
		cov            [2]coverage // per core count; cov[0] also carries the overhead
		want           = map[int][2]string{}
		input0         densePair // input 0's results, whose retained size live_heap_mb reports
		runS, analyzeS float64
	)
	phase := time.Now()
	for i := 0; measuring(o, phase, r, len(untraced) >= 3 && !cov[0].short(o)); i++ {
		r.attempt++
		r.probe.run()
		traceOp := o.trace && i%2 == 1
		var regs [2]*telemetry.Registry
		var opTr *tracer
		var rtBefore runtimeStats
		if traceOp {
			regs = [2]*telemetry.Registry{telemetry.NewRegistry(), telemetry.NewRegistry()}
			opTr = tr
			rtBefore = readRuntime()
		}
		k := inputIndex(o, i)
		m := r.startMeter()
		p, err := runDensePair(inputs[k], inputSeed(o.seed, k), denseHorizon, regs, opTr, fmt.Sprintf("op%d", i))
		s := m.stop()
		if err != nil {
			r.failed++
			r.fail("op %d: %v", i, err)
			continue
		}
		if k == 0 {
			input0 = p
		}
		// Every repetition of an input, traced or not, has the same outcome.
		if prev, ok := want[k]; !ok {
			want[k] = p.outcomes
		} else if p.outcomes != prev {
			r.failed++
			r.fail("op %d (input %d, traced=%v): outcomes %q differ from the input's earlier %q", i, k, traceOp, p.outcomes, prev)
		}
		if !traceOp {
			cov[0].untraced(k, s)
			untraced = append(untraced, s)
			oneLat = append(oneLat, m.at(p.firstAt))
			twoLat = append(twoLat, m.at(s.wall.sec-p.firstAt))
			continue
		}
		rtAfter := readRuntime()
		for c, reg := range regs {
			sc, err := registryScrape(reg)
			if err != nil {
				return err
			}
			// The registry mirrors the run's own counters exactly.
			if got := engineEvents(sc); int(got) != p.results[c].Events {
				r.fail("op %d: registry counted %v events, the run %d", i, got, p.results[c].Events)
			}
			if cov[c].traced(k, s, sc, rtBefore, rtAfter) && c == 0 {
				runS += p.runS
				analyzeS += p.analyzeS
			}
		}
	}
	r.probe.run() // the probe after the last op
	r.e2e["setup_s"] = median(r.normAll(setups))
	addOpMetrics(r, untraced)
	if !o.trace {
		// The heap one pair's two engine.Results hold, per 1000 released
		// jobs: the set sizes differ between seeds, the footprint per job
		// is the simulator's.
		with := liveHeapMB()
		var released int
		for _, res := range input0.results {
			if res != nil {
				released += len(res.Jobs)
			}
		}
		runtime.KeepAlive(input0)
		input0 = densePair{}
		r.e2e["live_heap_mb"] = ratio(with-liveHeapMB(), float64(released)) * 1000
		r.e2e["jobs_per_s"] = ratio(float64(2*len(untraced)), busy(r, untraced))
		one, two := r.normAll(oneLat), r.normAll(twoLat)
		r.e2e["ack_p50_ms"] = quantile(one, 0.50) * 1e3
		r.e2e["ack_p99_ms"] = quantile(one, 0.99) * 1e3
		r.e2e["done_p50_ms"] = quantile(two, 0.50) * 1e3
		r.e2e["done_p90_ms"] = quantile(two, 0.90) * 1e3
	} else {
		decide := addSchedLayer(r, cov[0].sc, "eua", "EUA*", traceInputs)
		// Partitioned EUA*'s per-core instances report under the bare
		// scheme name; the 2-core registry holds nothing else.
		decide += addSchedLayer(r, cov[1].sc, "eua-p2ff", "EUA*", traceInputs)
		both := cov[0].sc.plus(cov[1].sc)
		addEngineLayer(r, both, traceInputs)
		runS /= traceInputs
		r.layer["engine.ns_per_event"] = ratio(runS, engineEvents(both)/traceInputs) * 1e9
		r.layer["engine.rest_s"] = runS - decide
		r.layer["metrics.analyze_s"] = analyzeS / traceInputs
		r.layer["workload.synthesize_s"] = tr.total("workload.Synthesize") / (setupReps * poolSize)
		cov[0].report(r)
		if err := writeSpans(o, tr, r); err != nil {
			return err
		}
	}
	r.note("input 0, 1-core: %s", want[0][0])
	r.note("input 0, 2-core: %s", want[0][1])
	return checkDense(o, r, want[0])
}

// Reference instance checked on every run, whatever the seed: workload
// seed 1 over a 0.25 s horizon, against pinned outcomes.
const denseRefHorizon = 0.25

func checkDense(o options, r *report, measured [2]string) error {
	if pin, ok := pinnedDense[o.seed]; ok && measured != pin {
		r.fail("seed %d input 0: outcomes %q, pinned %q", o.seed, measured, pin)
	}
	ts, err := denseSet(1)
	if err != nil {
		return err
	}
	p, err := runDensePair(ts, 1, denseRefHorizon, [2]*telemetry.Registry{}, nil, "")
	if err != nil {
		r.fail("reference instance: %v", err)
		return nil
	}
	if p.outcomes != pinnedDenseRef {
		r.fail("reference instance outcomes %q, pinned %q", p.outcomes, pinnedDenseRef)
	}
	return nil
}
