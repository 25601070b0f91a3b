package main

import (
	"bytes"
	"context"
	"time"

	"udp"
	"udp/internal/automata"
)

// tiers are the execution tiers measured on every kernel, fastest first.
var tiers = []udp.Engine{udp.EngineCompiled, udp.EngineDecoded, udp.EngineInterp}

// The tier rates come from single-lane Exec calls on inputs of
// execInputBytes each. One lane keeps the wall on the lane's own work rather
// than on cross-core hand-offs, and leaves the second core to the runtime;
// short inputs give each (input, tier) pair about a hundred calls per run.
// The sched layer measures the n-lane executor.
const (
	tierLanes      = 1
	execInputBytes = 256 << 10
)

// execCase is one input that udp.Exec runs on each of its tiers.
type execCase struct {
	k      *kernel
	prog   int // index of the case's program in its workload's list
	img    *udp.Image
	input  []byte
	shards [][]byte // pre-split record shards (NIDS), else nil
	want   []byte
	wantM  [][]automata.MatchEvent
	// ref is the machine's counters on the first verified run; every later
	// run, on any tier, must reproduce them exactly.
	ref    udp.Stats
	hasRef bool
}

func (c *execCase) tiers() []udp.Engine {
	if c.k.nfa != nil {
		return tiers[1:] // multi-active: decoded and interp only
	}
	return tiers
}

// runKey names one (case, tier) pair; its Exec walls are summarized by
// their minimum (see mbps).
type runKey struct {
	c   *execCase
	eng udp.Engine
}

// execPass runs Exec calls over a case set, verifying every one.
type execPass struct {
	lanes int
	tr    *tracer

	attempted     int64
	fails         map[string]int64
	walls         map[runKey][]float64
	verifiedBytes int64

	// traced-run observations from the stats hook
	shardWallNs []float64
	busyNs      float64 // Σ shard wall on n-lane runs
	capNs       float64 // lanes × Exec wall on n-lane runs
	highWater   int
	degraded    int64 // shards that ran below the requested tier
}

func newExecPass(lanes int, tr *tracer) *execPass {
	return &execPass{lanes: lanes, tr: tr, fails: map[string]int64{}, walls: map[runKey][]float64{}}
}

// run executes one case on one tier and checks the result. It returns
// false when the operation failed (the failure is already counted).
func (p *execPass) run(ctx context.Context, c *execCase, eng udp.Engine, lanes int, parent int64) bool {
	p.attempted++
	opts := []udp.ExecOption{udp.WithEngine(eng), udp.WithMaxLanes(lanes)}
	if c.k.hasSep && c.shards == nil {
		opts = append(opts, udp.WithChunker(c.k.sep))
	}
	var execID int64
	var busy time.Duration
	if p.tr != nil {
		execID = p.tr.reserve()
		opts = append(opts, udp.WithStatsHook(func(e udp.ShardEvent) {
			end := time.Now()
			p.tr.add("sched.shard", execID, "", end.Add(-e.Wall), end)
			p.shardWallNs = append(p.shardWallNs, float64(e.Wall))
			busy += e.Wall
			if e.Engine != eng && !(eng == udp.EngineCompiled && c.k.nfa != nil) {
				p.degraded++
			}
		}))
	}
	t0 := time.Now()
	var res *udp.ExecResult
	var err error
	if c.shards != nil {
		res, err = udp.ExecShards(ctx, c.img, c.shards, opts...)
	} else {
		res, err = udp.Exec(ctx, c.img, bytes.NewReader(c.input), opts...)
	}
	wall := time.Since(t0)
	p.tr.finish(execID, "udp.Exec", parent, "", t0, t0.Add(wall))
	if err != nil {
		p.fail("trap")
		return false
	}
	if p.tr != nil && lanes > 1 {
		p.busyNs += float64(busy)
		p.capNs += float64(lanes) * float64(wall)
		p.highWater = max(p.highWater, res.QueueHighWater)
	}
	if !c.verify(res) {
		p.fail("bad-output")
		return false
	}
	k := runKey{c, eng}
	p.walls[k] = append(p.walls[k], float64(wall))
	p.verifiedBytes += int64(len(c.input))
	return true
}

func (p *execPass) fail(class string) {
	p.fails[class]++
}

// verify checks output (or matches) against the CPU oracle and the
// machine counters against the first verified run.
func (c *execCase) verify(res *udp.ExecResult) bool {
	if c.k.nfa != nil {
		if !sameMatches(res.Matches, c.wantM) {
			return false
		}
	} else {
		off := 0
		for _, o := range res.Outputs {
			if off+len(o) > len(c.want) || !bytes.Equal(o, c.want[off:off+len(o)]) {
				return false
			}
			off += len(o)
		}
		if off != len(c.want) {
			return false
		}
	}
	if !c.hasRef {
		c.ref, c.hasRef = res.Total, true
		return true
	}
	return res.Total == c.ref
}

// mbps is input MB over the shortest Exec wall time of each case, summed
// over the cases run on tier eng (or on every tier when all is set).
// A neighbour on a shared host only ever adds time, so the fastest of a
// case's ~100 calls follows the code rather than the neighbours (README.md,
// "Why the tier rates take the shortest call").
func (p *execPass) mbps(eng udp.Engine, all bool) float64 {
	var bytes, ns float64
	for k, ws := range p.walls {
		if all || k.eng == eng {
			bytes += float64(len(k.c.input))
			ns += quantile(append([]float64(nil), ws...), 0)
		}
	}
	return ratio(bytes/1e6, ns/1e9)
}

// loop runs rounds over every case and tier until the deadline, at least
// one full round. It returns the number of Exec calls made.
func (p *execPass) loop(ctx context.Context, cases []*execCase, d time.Duration, parent int64) {
	deadline := time.Now().Add(d)
	for round := 0; ; round++ {
		for _, c := range cases {
			for _, eng := range c.tiers() {
				if round > 0 && time.Now().After(deadline) {
					return
				}
				p.run(ctx, c, eng, p.lanes, parent)
			}
		}
	}
}

// simCyclesPerByte is Σ simulated lane cycles over Σ input bytes, from the
// reference counters (identical on every tier by construction).
func simCyclesPerByte(cases []*execCase) float64 {
	var cyc, n float64
	for _, c := range cases {
		if c.hasRef {
			cyc += float64(c.ref.Cycles)
			n += float64(len(c.input))
		}
	}
	return ratio(cyc, n)
}
