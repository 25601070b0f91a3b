package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"

	"udp"
	"udp/internal/compile"
	"udp/internal/core"
	"udp/internal/kernels/pattern"
	"udp/internal/memsys"
)

// setupStats is the system's own set-up cost over a set of programs: EffCLiP
// layout (udp.Compile), first-use lowering (compile.For) and the lane's
// predecode (udp.NewLane). Medians over several repetitions.
type setupStats struct {
	totalS     []float64 // every repetition's total, in seconds
	layoutMs   float64
	lowerMs    float64
	imageWords int
	fusedRatio float64
}

// Set-up (compiling every program, or starting a server) is repeated to
// report its median. A serving run repeats it setupReps times before and
// after serving. Compiling takes ~50 ms, long enough for a second-long
// stretch of host contention to cover a whole block of repetitions, so
// exec-batch repeats it setupReps times before its measured window and
// sliceReps times after each of the window's setupSlices slices.
const (
	setupReps   = 15
	setupSlices = 10
	sliceReps   = 2
)

// compileAll lays out and lowers every program once, returning the images
// and the time in each step.
func compileAll(progs []*core.Program, tr *tracer, parent int64) (imgs []*udp.Image, layout, lower, decode time.Duration, err error) {
	for _, p := range progs {
		t0 := time.Now()
		im, err := udp.Compile(p)
		t1 := time.Now()
		tr.add("effclip.Compile", parent, "", t0, t1)
		if err != nil {
			return nil, 0, 0, 0, fmt.Errorf("compile %s: %w", p.Name, err)
		}
		compile.For(im) // an ineligible (NFA) image reports why; both outcomes are first-use lowering
		t2 := time.Now()
		tr.add("compile.For", parent, "", t1, t2)
		if _, err := udp.NewLane(im, 0); err != nil {
			return nil, 0, 0, 0, fmt.Errorf("lane %s: %w", p.Name, err)
		}
		t3 := time.Now()
		tr.add("machine.NewLane", parent, "", t2, t3)
		layout += t1.Sub(t0)
		lower += t2.Sub(t1)
		decode += t3.Sub(t2)
		imgs = append(imgs, im)
	}
	return imgs, layout, lower, decode, nil
}

// measureSetup repeats compileAll reps times and keeps the last
// repetition's images.
func measureSetup(progs []*core.Program, tr *tracer, reps int) (setupStats, []*udp.Image, error) {
	var tot, lay, low []float64
	var imgs []*udp.Image
	for r := 0; r < reps; r++ {
		// Start each repetition from a collected heap, so garbage left by
		// the previous one is not charged to this one.
		runtime.GC()
		t0 := time.Now()
		id := tr.reserve()
		var err error
		var layout, lower, decode time.Duration
		imgs, layout, lower, decode, err = compileAll(progs, tr, id)
		if err != nil {
			return setupStats{}, nil, err
		}
		total := layout + lower + decode
		tr.finish(id, "setup", 0, "", t0, time.Now())
		tot = append(tot, total.Seconds())
		lay = append(lay, ms(float64(layout)))
		low = append(low, ms(float64(lower)))
	}
	st := setupStats{totalS: tot, layoutMs: median(lay), lowerMs: median(low)}
	var fused, slow int
	for _, im := range imgs {
		st.imageWords += len(im.Words)
		if cp, err := compile.For(im); err == nil {
			fused += cp.FusedChains
			slow += cp.SlowChains
		}
	}
	st.fusedRatio = ratio(float64(fused), float64(fused+slow))
	return st, imgs, nil
}

// l0Budget is the minimum timed lane time per machine row.
const l0Budget = 60 * time.Millisecond

// machineLayer times one lane, one goroutine, warm, around Lane.Run, for
// every case and tier, and checks each run's output against the oracle.
// It returns the per-row ns/byte metrics plus the Stats-derived ratios,
// and the single-lane compiled MB/s over all cases (the L0 base for
// sched.l1_over_l0).
func machineLayer(cases []*execCase, tr *tracer, out map[string]float64) (compiledMBps float64, err error) {
	var cyc, disp, act, nbytes float64
	var cBytes, cNs float64
	for _, c := range cases {
		in := c.input
		if c.shards != nil {
			in = c.shards[0]
		}
		var want []byte
		if c.k.nfa == nil {
			want = c.k.oracle(in)
		}
		for _, eng := range c.tiers() {
			lane, err := udp.NewLane(c.img, 0)
			if err != nil {
				return 0, err
			}
			lane.SetEngine(eng)
			var samples []float64
			var spent time.Duration
			for rep := 0; rep < 3 || spent < l0Budget; rep++ {
				lane.Reset()
				lane.SetInput(in)
				t0 := time.Now()
				err := lane.Run(0)
				d := time.Since(t0)
				tr.add("machine.Lane.Run", 0, "", t0, t0.Add(d))
				if err != nil {
					return 0, fmt.Errorf("machine %s/%s: %w", c.k.name, eng, err)
				}
				if !laneCorrect(lane, c.k.nfa, in, want) {
					return 0, fmt.Errorf("machine %s/%s: output differs from the oracle", c.k.name, eng)
				}
				spent += d
				samples = append(samples, float64(d)/float64(len(in)))
			}
			nsb := median(samples)
			out[fmt.Sprintf("machine.%s.%s.ns_per_byte", c.k.name, eng)] = nsb
			if eng == udp.EngineCompiled {
				cBytes += float64(len(in))
				cNs += nsb * float64(len(in))
			}
			if eng == c.tiers()[0] {
				st := lane.Stats()
				cyc += float64(st.Cycles)
				disp += float64(st.Dispatches)
				act += float64(st.Actions)
				nbytes += float64(len(in))
			}
		}
	}
	out["machine.cycles_per_byte"] = ratio(cyc, nbytes)
	out["machine.dispatches_per_byte"] = ratio(disp, nbytes)
	out["machine.actions_per_byte"] = ratio(act, nbytes)
	return ratio(cBytes/1e6, cNs/1e9), nil
}

func laneCorrect(l *udp.Lane, set *pattern.Set, in, want []byte) bool {
	if set != nil {
		got, exp := pattern.Dedup(l.Matches()), set.MatchCPUNFA(in)
		if len(got) != len(exp) {
			return false
		}
		for i := range got {
			if got[i] != exp[i] {
				return false
			}
		}
		return true
	}
	return bytes.Equal(l.Output(), want)
}

// schedLayer measures the executor on the compiled tier (decoded for the
// NIDS set): MB/s at one lane and at n lanes over the same cases. It
// returns both passes, whose failures count against the run.
func schedLayer(ctx context.Context, cases []*execCase, lanes int, l0MBps float64, tr *tracer, budget time.Duration, out map[string]float64) []*execPass {
	one := newExecPass(1, nil)
	n := newExecPass(lanes, tr)
	deadline := time.Now().Add(budget)
	for first := true; first || time.Now().Before(deadline); first = false {
		for _, c := range cases {
			eng := c.tiers()[0]
			one.run(ctx, c, eng, 1, 0)
			n.run(ctx, c, eng, lanes, 0)
		}
	}
	m1, mn := one.mbps(0, true), n.mbps(0, true)
	out["sched.mbps_1lane"] = m1
	out["sched.mbps_nlane"] = mn
	out["sched.l1_over_l0"] = ratio(mn, float64(lanes)*l0MBps)
	out["sched.busy_ratio"] = ratio(n.busyNs, n.capNs)
	out["sched.queue_high_water"] = float64(n.highWater)
	out["sched.shard_us_p50"] = quantile(n.shardWallNs, 0.50) / 1e3
	out["sched.shard_us_p99"] = quantile(n.shardWallNs, 0.99) / 1e3
	out["sched.tier_degraded_shards"] = float64(n.degraded)
	return []*execPass{one, n}
}

// memSnap is the slab manager's and the runtime's counters at one instant.
type memSnap struct {
	gets, hits, transitions uint64
	rt                      memsys.RuntimeSnapshot
	mallocs                 uint64
}

func readMem() memSnap {
	st := memsys.Default().Stats()
	s := memSnap{transitions: st.Transitions, rt: memsys.ReadRuntime()}
	for _, c := range st.Classes {
		s.gets += c.Gets
		s.hits += c.Hits
	}
	sm := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(sm)
	if sm[0].Value.Kind() == metrics.KindUint64 {
		s.mallocs = sm[0].Value.Uint64()
	}
	return s
}

// memLayer reports the slab manager and GC over a window of ops.
func memLayer(a, b memSnap, ops float64, out map[string]float64) {
	out["memsys.hit_ratio"] = ratio(float64(b.hits-a.hits), float64(b.gets-a.gets))
	out["memsys.gets_per_op"] = ratio(float64(b.gets-a.gets), ops)
	out["memsys.alloc_bytes_per_op"] = ratio(float64(b.rt.AllocBytes-a.rt.AllocBytes), ops)
	out["memsys.gc_cycles"] = float64(b.rt.GCCycles - a.rt.GCCycles)
	out["memsys.gc_pause_p99_ms"] = 1e3 * memsys.PauseDeltaQuantile(a.rt.GCPauses, b.rt.GCPauses, 0.99)
	out["memsys.pressure_transitions"] = float64(b.transitions - a.transitions)
}

// heapSampler records the highest heap-in-use seen while it runs.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			if v := memsys.ReadRuntime().HeapInuse; v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// end stops the sampler and returns the peak in MB.
func (h *heapSampler) end() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}
