package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"udp"
	"udp/internal/core"
	"udp/internal/obs"
)

type layerMetric struct{ name, unit, better string }

// etlKernels are the exec-batch kernels, each over its paper ETL input.
var etlKernels = []string{"csvpipe", "csvparse", "jsonparse", "xmlparse", "histogram16", "echo"}

// perLayer names every per-layer metric. Every traced run reports all of
// them; a layer the workload never reaches reads 0.
func perLayer() []layerMetric {
	ls := []layerMetric{
		{"effclip.layout_ms", "ms", "lower"},
		{"effclip.image_words", "words", "lower"},
		{"compile.lower_ms", "ms", "lower"},
		{"compile.fused_ratio", "ratio", "higher"},
	}
	for _, k := range append(append([]string(nil), etlKernels...), "nids") {
		for _, eng := range tiers {
			if k == "nids" && eng == udp.EngineCompiled {
				continue
			}
			ls = append(ls, layerMetric{fmt.Sprintf("machine.%s.%s.ns_per_byte", k, eng), "ns/B", "lower"})
		}
	}
	ls = append(ls,
		layerMetric{"machine.cycles_per_byte", "cycles/B", "lower"},
		layerMetric{"machine.dispatches_per_byte", "1/B", "lower"},
		layerMetric{"machine.actions_per_byte", "1/B", "lower"},
		layerMetric{"sched.mbps_1lane", "MB/s", "higher"},
		layerMetric{"sched.mbps_nlane", "MB/s", "higher"},
		layerMetric{"sched.l1_over_l0", "ratio", "higher"},
		layerMetric{"sched.busy_ratio", "ratio", "higher"},
		layerMetric{"sched.queue_high_water", "count", "lower"},
		layerMetric{"sched.shard_us_p50", "us", "lower"},
		layerMetric{"sched.shard_us_p99", "us", "lower"},
		layerMetric{"sched.tier_degraded_shards", "count", "lower"},
		layerMetric{"memsys.hit_ratio", "ratio", "higher"},
		layerMetric{"memsys.gets_per_op", "count", "lower"},
		layerMetric{"memsys.alloc_bytes_per_op", "B", "lower"},
		layerMetric{"memsys.gc_cycles", "count", "lower"},
		layerMetric{"memsys.gc_pause_p99_ms", "ms", "lower"},
		layerMetric{"memsys.pressure_transitions", "count", "lower"},
		layerMetric{"server.handler_ms_p50", "ms", "lower"},
		layerMetric{"server.handler_ms_p99", "ms", "lower"},
	)
	for _, st := range stageNames() {
		ls = append(ls,
			layerMetric{"server.stage." + st + "_ms_p50", "ms", "lower"},
			layerMetric{"server.stage." + st + "_ms_p99", "ms", "lower"})
	}
	return append(ls,
		layerMetric{"server.unattributed_ratio", "ratio", "lower"},
		layerMetric{"server.allocs_per_op", "count", "lower"},
		layerMetric{"server.register_ms_p50", "ms", "lower"},
		layerMetric{"server.register_ms_p99", "ms", "lower"},
		layerMetric{"server.registry_evictions", "count", "lower"},
		layerMetric{"server.l3_over_l2", "ratio", "lower"},
		layerMetric{"client.first_byte_ms_p50", "ms", "lower"},
		layerMetric{"client.first_byte_ms_p99", "ms", "lower"},
		layerMetric{"client.attempts_per_op", "count", "lower"},
		layerMetric{"gen.p50_ms", "ms", "lower"},
		layerMetric{"gen.p99_ms", "ms", "lower"},
		layerMetric{"gen.max_rps_at_slo", "req/s", "higher"},
		layerMetric{"gen.late_ms_p99", "ms", "lower"},
		layerMetric{"gen.achieved_ratio", "ratio", "higher"},
	)
}

// etlCases generates the paper's ETL inputs, n bytes per kernel, and a
// 24-rule NIDS set over a trace a quarter of that.
func etlCases(seed int64, n int) ([]*execCase, []*core.Program, error) {
	nk, err := nidsKernel(24, nidsSets)
	if err != nil {
		return nil, nil, err
	}
	return programCases(seed, n, etlKernels, []*kernel{nk})
}

// programCases generates n bytes of input per named kernel and, for the
// NIDS sets, traffic of n/4 bytes in all, split into record shards; one
// program per case.
func programCases(seed int64, n int, names []string, nids []*kernel) ([]*execCase, []*core.Program, error) {
	rng := rand.New(rand.NewSource(seed))
	var cases []*execCase
	var progs []*core.Program
	add := func(c *execCase) error {
		p, err := c.k.build()
		if err != nil {
			return err
		}
		c.prog = len(progs)
		cases = append(cases, c)
		progs = append(progs, p)
		return nil
	}
	for _, name := range names {
		k := kernels[name]
		in := genInput(name, n, rng)
		if err := add(&execCase{k: k, input: in, want: k.oracle(in)}); err != nil {
			return nil, nil, err
		}
	}
	for _, nk := range nids {
		in := nidsTrace(nk.nfa, max(n/4/len(nids), 4096), rng)
		shards := udp.SplitRecords(in, 8, '\n')
		if err := add(&execCase{k: nk, input: in, shards: shards, wantM: wantMatches(nk.nfa, shards)}); err != nil {
			return nil, nil, err
		}
	}
	return cases, progs, nil
}

func attach(cases []*execCase, imgs []*udp.Image) {
	for _, c := range cases {
		c.img = imgs[c.prog]
	}
}

// tally carries operation counts across a run's phases.
type tally struct {
	attempted int64
	fails     map[string]int64
}

func (t *tally) absorb(p *execPass) {
	t.attempted += p.attempted
	for k, v := range p.fails {
		t.fails[k] += v
	}
}

func (t *tally) failed() int64 {
	var n int64
	for _, v := range t.fails {
		n += v
	}
	return n
}

func (t *tally) okRatio() float64 {
	return ratio(float64(t.attempted-t.failed()), float64(t.attempted))
}

// layerProbes fills the machine and sched rows of a traced run from the
// ETL kernel cases (machine) and the workload's own cases (sched).
func layerProbes(ctx context.Context, cfg config, tr *tracer, own []*execCase, layers map[string]float64, t *tally) error {
	l0, progs, err := etlCases(cfg.seed, int(float64(execInputBytes)*cfg.scale))
	if err != nil {
		return err
	}
	imgs, _, _, _, err := compileAll(progs, nil, 0)
	if err != nil {
		return err
	}
	attach(l0, imgs)
	l0MBps, err := machineLayer(l0, tr, layers)
	if err != nil {
		return err
	}
	for _, p := range schedLayer(ctx, own, cfg.lanes, l0MBps, tr, time.Duration(float64(2*time.Second)*min(cfg.scale, 1)), layers) {
		t.absorb(p)
	}
	return nil
}

func runExecBatch(ctx context.Context, cfg config, tr *tracer) (*report, error) {
	cases, progs, err := etlCases(cfg.seed, int(float64(execInputBytes)*cfg.scale))
	if err != nil {
		return nil, err
	}
	st, imgs, err := measureSetup(progs, tr, setupReps)
	if err != nil {
		return nil, err
	}
	attach(cases, imgs)
	rep := &report{EndToEnd: map[string]float64{}, Layers: map[string]float64{}}
	t := &tally{fails: map[string]int64{}}
	w := newExecPass(tierLanes, nil)
	for _, c := range cases {
		for _, eng := range c.tiers() {
			w.run(ctx, c, eng, tierLanes, 0)
		}
	}
	t.absorb(w)
	if tr != nil {
		if err := layerProbes(ctx, cfg, tr, cases, rep.Layers, t); err != nil {
			return nil, err
		}
	}

	// The measured window is cut into slices with set-up repetitions after
	// each, timed apart from the slices. A traced run keeps one unbroken
	// window, so that the memsys rows hold the loop's work alone.
	slices := setupSlices
	if tr != nil {
		slices = 1
	}
	p := newExecPass(tierLanes, tr)
	setup := st.totalS
	var cpu, wall time.Duration
	var peak float64
	m0 := readMem()
	var m1 memSnap
	for i := 0; i < slices; i++ {
		// Start from a collected heap, so set-up's garbage is not charged
		// to the slice.
		runtime.GC()
		cpu0, heap, t0 := cpuTime(), startHeapSampler(), time.Now()
		p.loop(ctx, cases, time.Duration(cfg.seconds)*time.Second/time.Duration(slices), 0)
		wall += time.Since(t0)
		peak = max(peak, heap.end())
		cpu += cpuTime() - cpu0
		m1 = readMem()
		more, _, err := measureSetup(progs, nil, sliceReps)
		if err != nil {
			return nil, err
		}
		setup = append(setup, more.totalS...)
	}
	t.absorb(p)

	e := rep.EndToEnd
	e["setup_s"] = median(setup)
	e["compiled_mbps"] = p.mbps(udp.EngineCompiled, false)
	e["decoded_mbps"] = p.mbps(udp.EngineDecoded, false)
	e["interp_mbps"] = p.mbps(udp.EngineInterp, false)
	e["sim_cycles_per_byte"] = simCyclesPerByte(cases)
	e["cpu_ns_per_byte"] = ratio(float64(cpu), float64(p.verifiedBytes))
	e["peak_heap_mb"] = peak
	e["ok_ratio"] = t.okRatio()

	if tr != nil {
		fillSetupLayers(rep.Layers, st)
		memLayer(m0, m1, float64(p.attempted), rep.Layers)
	}
	rep.Result = result{Correct: t.fails["bad-output"] == 0, Attempted: t.attempted}
	rep.Failures = t.fails
	rep.Notes = append(rep.Notes, fmt.Sprintf("%d Exec calls over %d cases in %.1fs",
		p.attempted, len(cases), wall.Seconds()))
	return rep, nil
}

func fillSetupLayers(l map[string]float64, st setupStats) {
	l["effclip.layout_ms"] = st.layoutMs
	l["effclip.image_words"] = float64(st.imageWords)
	l["compile.lower_ms"] = st.lowerMs
	l["compile.fused_ratio"] = st.fusedRatio
}

func runServe(ctx context.Context, cfg config, tr *tracer) (*report, error) {
	s := &serveRun{
		name: cfg.workload, spec: serveSpecs[cfg.workload], seed: cfg.seed,
		conns: cfg.lanes, tr: tr, rng: rand.New(rand.NewSource(cfg.seed ^ 0x5eed)),
		acked: make([]string, nidsSets),
	}
	// The workload's programs: the builtins it calls plus the NIDS sets it
	// posts. Their layout and lowering are the effclip/compile rows; the
	// server's own start-and-compile is setup_s.
	cases, progs, err := s.tierCases(cfg.scale)
	if err != nil {
		return nil, err
	}
	st, imgs, err := measureSetup(progs, tr, setupReps)
	if err != nil {
		return nil, err
	}
	attach(cases, imgs)
	rep := &report{EndToEnd: map[string]float64{}, Layers: map[string]float64{}}
	t := &tally{fails: map[string]int64{}}

	total := time.Duration(cfg.seconds) * time.Second
	tA := time.Duration(float64(total) * s.spec.fixed)
	nSteps := int(float64(total) * s.spec.search / float64(s.spec.step))
	tTier := total - tA - time.Duration(nSteps)*s.spec.step

	// The tier pass runs in two halves, first on a fresh process whose
	// heap holds little beyond the pass's own inputs, as in exec-batch, and
	// again once the server has stopped: a stretch of host contention
	// rarely covers both, and each input's rate takes its fastest call.
	tp := newExecPass(tierLanes, nil)
	tp.loop(ctx, cases, tTier/2, 0)

	if err := s.genBodies(ctx, cfg.scale); err != nil {
		return nil, err
	}
	setup, err := s.measureSetup(ctx)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		if err := layerProbes(ctx, cfg, tr, cases, rep.Layers, t); err != nil {
			return nil, err
		}
	}

	if _, err := s.startServer(ctx); err != nil {
		return nil, err
	}
	if err := s.compileBuiltins(); err != nil {
		return nil, err
	}
	// Warm the connections, the builtins and one posted program per set.
	warm := s.warmup(ctx)
	before, err := s.scrapeRequests(ctx)
	if err != nil {
		return nil, err
	}
	_, _, ev0 := s.srv.Registry().Counts()

	m0, cpu0 := readMem(), cpuTime()
	heap := startHeapSampler()
	pa := s.openLoop(ctx, s.spec.rate, tA, 0)
	peak := heap.end()
	cpu, m1 := cpuTime()-cpu0, readMem()
	va := s.judge(pa)
	best, steps := s.searchCapacity(ctx, va, nSteps, 0)

	after, err := s.scrapeRequests(ctx)
	if err != nil {
		return nil, err
	}
	_, _, ev1 := s.srv.Registry().Counts()
	all := append(append([]rec(nil), pa.recs...), flatten(steps)...)
	diff, mismatch, unexplained := agreement(before, after, all)
	if err := s.stopServer(); err != nil {
		return nil, err
	}
	setup2, err := s.measureSetup(ctx)
	if err != nil {
		return nil, err
	}
	setup = append(setup, setup2...)
	// The bodies are done with: drop them so the second half runs on a
	// heap as small as the first half's.
	s.builtins, s.posted = nil, nil
	runtime.GC()
	tp.loop(ctx, cases, tTier/2, 0)
	t.absorb(tp)

	for _, r := range append(warm, all...) {
		t.attempted++
		if !r.ok {
			t.fails[r.class]++
		}
	}

	// Latency covers the transforms. A POST compiles its NFA on the request
	// path, and that compile alone spans 13–80 ms (p10–p99) on the
	// reference host: at 2% of the operations a p99 over both would sit in
	// the middle of that spread. POST latency is server.register_ms_*.
	// p99 is the median of the p99s of three equal sub-windows, so one
	// stall of the host moves at most one of them.
	var lat []float64
	thirds := make([][]float64, 3)
	var verified int64
	for _, r := range pa.recs {
		if r.ok && r.kind != opRegister {
			lat = append(lat, float64(r.end.Sub(r.due)))
			w := min(int(3*r.due.Sub(pa.dispatch)/pa.dur), 2)
			thirds[w] = append(thirds[w], float64(r.end.Sub(r.due)))
			verified += int64(r.bytes)
		}
	}
	var p99s []float64
	for _, xs := range thirds {
		p99s = append(p99s, quantile(xs, 0.99))
	}
	e := rep.EndToEnd
	e["setup_s"] = median(setup)
	e["compiled_mbps"] = tp.mbps(udp.EngineCompiled, false)
	e["decoded_mbps"] = tp.mbps(udp.EngineDecoded, false)
	e["interp_mbps"] = tp.mbps(udp.EngineInterp, false)
	e["sim_cycles_per_byte"] = simCyclesPerByte(cases)
	e["cpu_ns_per_byte"] = ratio(float64(cpu), float64(verified))
	e["peak_heap_mb"] = peak
	e["ok_ratio"] = t.okRatio()
	// The serving latencies and the capacity search are per-layer rows of
	// the generator: on a shared 2-core host their run-to-run spread is
	// wider than any bound an end-to-end metric may carry (see README).
	rep.Layers["gen.p50_ms"] = ms(quantile(lat, 0.50))
	rep.Layers["gen.p99_ms"] = ms(median(p99s))
	rep.Layers["gen.max_rps_at_slo"] = best

	rep.Agreement, rep.Mismatch, rep.Unexplained = diff, mismatch, unexplained
	rep.Result = result{Correct: t.fails["bad-output"] == 0 && unexplained == 0, Attempted: t.attempted}
	rep.Failures = t.fails
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("fixed rate %.0f req/s for %s: %d ops, p99 over %d ok, verdict %+v",
			s.spec.rate, tA, len(pa.recs), len(lat), va))
	byKind := map[opKind][]float64{}
	for _, r := range pa.recs {
		if r.ok {
			byKind[r.kind] = append(byKind[r.kind], float64(r.end.Sub(r.due)))
		}
	}
	for k, name := range []string{"builtin transform", "posted transform", "register"} {
		if xs := byKind[opKind(k)]; len(xs) > 0 {
			rep.Notes = append(rep.Notes, fmt.Sprintf("%s: %d ok, p50 %.3fms p99 %.3fms",
				name, len(xs), ms(quantile(xs, 0.5)), ms(quantile(xs, 0.99))))
		}
	}
	for _, p := range steps {
		v := s.judge(p)
		rep.Notes = append(rep.Notes, fmt.Sprintf("search step %.0f req/s: %d ops, pass=%v achieved=%.1f tail=%s backlog=%d",
			p.rate, len(p.recs), v.pass, v.achieved, v.tail, v.backlog))
	}

	if tr != nil {
		fillSetupLayers(rep.Layers, st)
		memLayer(m0, m1, float64(len(pa.recs)), rep.Layers)
		s.serverLayers(pa, m0, m1, ev1-ev0, rep.Layers)
	}
	return rep, nil
}

func flatten(ps []phase) []rec {
	var out []rec
	for _, p := range ps {
		out = append(out, p.recs...)
	}
	return out
}

// tierCases are the workload's programs with inputs made from the seed
// like its bodies, execInputBytes per builtin: the builtins it calls and,
// on serve-small, the NIDS sets it posts. They feed the tier pass and the
// sched probe.
func (s *serveRun) tierCases(scale float64) ([]*execCase, []*core.Program, error) {
	n := int(float64(execInputBytes) * scale)
	if s.name == "serve-bulk" {
		return programCases(s.seed, n, s.programs(), nil)
	}
	var nids []*kernel
	for k := 0; k < nidsSets; k++ {
		nk, err := nidsKernel(12, int64(k))
		if err != nil {
			return nil, nil, err
		}
		nids = append(nids, nk)
	}
	return programCases(s.seed, n, s.programs(), nids)
}

// warmup sends one request per builtin body kind and posts one program per
// NIDS set, so the measured window starts on warm connections and caches.
func (s *serveRun) warmup(ctx context.Context) []rec {
	var out []rec
	seen := map[string]bool{}
	for _, b := range s.builtins {
		key := fmt.Sprint(b.program, b.gz)
		if !seen[key] {
			seen[key] = true
			out = append(out, s.do(ctx, op{kind: opTransform, b: b, due: time.Now()}, 0))
		}
	}
	for k := 0; k < len(s.asmBase); k++ {
		s.asmSeq++
		asm := fmt.Sprintf("program nids_%d_%d_w%d ", s.seed, k, s.asmSeq)
		out = append(out, s.do(ctx, op{kind: opRegister, b: &body{set: k},
			asm: strings.Replace(s.asmBase[k], "program pattern-nfa ", asm, 1), due: time.Now()}, 0))
	}
	return out
}

// serverLayers derives the server, client and generator rows of a traced
// serving run from its fixed-rate phase.
func (s *serveRun) serverLayers(pa phase, m0, m1 memSnap, evictions uint64, l map[string]float64) {
	s.hmu.Lock()
	hs := append([]handlerRec(nil), s.handlers...)
	s.hmu.Unlock()
	byRid := map[string]handlerRec{}
	var hTrans, hReg []float64
	for _, h := range hs {
		if h.start.Before(pa.dispatch) {
			continue
		}
		if h.register {
			hReg = append(hReg, float64(h.dur))
			continue
		}
		hTrans = append(hTrans, float64(h.dur))
		byRid[h.rid] = h
	}
	stages := make([][]float64, obs.NumStages)
	var client, firstByte, late []float64
	var attempts, transforms, stageSum, handlerSum float64
	for _, r := range pa.recs {
		late = append(late, float64(r.start.Sub(r.due)))
		if r.kind == opRegister {
			continue
		}
		transforms++
		attempts += float64(r.attempts)
		if !r.ok {
			continue
		}
		client = append(client, float64(r.end.Sub(r.start)))
		firstByte = append(firstByte, float64(r.firstByte))
		h, ok := byRid[r.rid]
		if !r.stages.OK || !ok {
			continue
		}
		handlerSum += float64(h.dur)
		at := h.start
		for st := obs.Stage(0); st < obs.NumStages; st++ {
			ns := r.stages.NS[st]
			stages[st] = append(stages[st], float64(ns))
			stageSum += float64(ns)
			// Stage trailers carry durations only: lay them out back to
			// back under the handler span so self time can be computed.
			end := at.Add(time.Duration(ns))
			s.tr.add("server.stage."+st.String(), h.spanID, r.rid, at, end)
			at = end
		}
	}
	l["server.handler_ms_p50"] = ms(quantile(hTrans, 0.50))
	l["server.handler_ms_p99"] = ms(quantile(hTrans, 0.99))
	for st := obs.Stage(0); st < obs.NumStages; st++ {
		l["server.stage."+st.String()+"_ms_p50"] = ms(quantile(stages[st], 0.50))
		l["server.stage."+st.String()+"_ms_p99"] = ms(quantile(stages[st], 0.99))
	}
	if handlerSum > 0 {
		l["server.unattributed_ratio"] = 1 - stageSum/handlerSum
	}
	l["server.allocs_per_op"] = ratio(float64(m1.mallocs-m0.mallocs), float64(len(pa.recs)))
	l["server.register_ms_p50"] = ms(quantile(hReg, 0.50))
	l["server.register_ms_p99"] = ms(quantile(hReg, 0.99))
	l["server.registry_evictions"] = float64(evictions)
	l["server.l3_over_l2"] = ratio(quantile(client, 0.50), quantile(hTrans, 0.50))
	l["client.first_byte_ms_p50"] = ms(quantile(firstByte, 0.50))
	l["client.first_byte_ms_p99"] = ms(quantile(firstByte, 0.99))
	l["client.attempts_per_op"] = ratio(attempts, transforms)
	l["gen.late_ms_p99"] = ms(quantile(late, 0.99))
	l["gen.achieved_ratio"] = ratio(s.judge(pa).achieved, pa.rate)
}
