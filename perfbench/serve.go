package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"udp"
	"udp/internal/client"
	"udp/internal/compile"
	"udp/internal/obs"
	"udp/internal/server"
)

// serveSpec fixes a serving workload's offered rate and the latency limit
// that max_rps_at_slo searches against. They were set once from
// measurements on a 2-core host and are not rescaled.
type serveSpec struct {
	rate  float64       // req/s in the fixed-rate phase
	q     float64       // the SLO percentile: the highest with ≥10 samples beyond it in a step
	limit time.Duration // latency limit at that percentile
	step  time.Duration // length of one capacity-search step
	// fixed and search are the shares of the measured time spent at the
	// fixed rate and in the capacity search; the rest is the tier pass.
	fixed, search float64
}

var serveSpecs = map[string]serveSpec{
	"serve-bulk": {rate: 40, q: 0.90, limit: 150 * time.Millisecond, step: 2 * time.Second,
		fixed: 0.4, search: 0.2},
	"serve-small": {rate: 500, q: 0.99, limit: 20 * time.Millisecond, step: 1500 * time.Millisecond,
		fixed: 0.35, search: 0.2},
}

// body is one request body with its expected response.
type body struct {
	program string // builtin name; "" for a posted NIDS program
	set     int    // NIDS rule set of a posted-program body
	data    []byte // the plain input
	wire    []byte // what is sent (gzip'd when gz)
	gz      bool
	ref     []byte
}

type opKind uint8

const (
	opTransform opKind = iota // builtin program
	opPosted                  // a freshly posted NIDS program
	opRegister                // POST /v1/programs
)

type op struct {
	kind opKind
	b    *body
	asm  string
	due  time.Time
}

// rec is one finished operation as the generator saw it.
type rec struct {
	kind       opKind
	due, start time.Time
	end        time.Time
	ok         bool
	class      string // failure class when !ok
	code       int    // HTTP status received (0 = none)
	bytes      int
	firstByte  time.Duration
	attempts   int
	stages     client.Stages
	rid        string
}

// handlerRec is one request as the wrapped Handler() saw it.
type handlerRec struct {
	rid      string
	register bool
	start    time.Time
	dur      time.Duration
	spanID   int64
}

// serveRun is the state of one serving workload run.
type serveRun struct {
	name  string
	spec  serveSpec
	seed  int64
	conns int
	tr    *tracer

	builtins []*body
	posted   []*body
	asmBase  []string // NIDS NFA assembly per rule set
	rng      *rand.Rand
	asmSeq   int
	opSeq    int

	srv     *server.Server
	httpSrv *http.Server
	done    chan error
	cl      *client.Client
	conn    *http.Transport

	amu   sync.Mutex
	acked []string // latest acknowledged posted-program ID per rule set

	hmu      sync.Mutex
	handlers []handlerRec
}

// nidsSets is how many distinct NIDS rule sets serve-small posts.
const nidsSets = 4

// The builtin programs each serving workload calls.
var (
	bulkPrograms  = []string{"csvpipe", "csvparse", "jsonparse", "xmlparse", "histogram16"}
	smallPrograms = []string{"echo", "csvpipe"}
)

func (s *serveRun) programs() []string {
	if s.name == "serve-bulk" {
		return bulkPrograms
	}
	return smallPrograms
}

// measureSetup starts a server setupReps times, each from a collected
// heap, and returns the seconds from server.New until /healthz answers and
// the builtins are compiled, lowered and predecoded.
func (s *serveRun) measureSetup(ctx context.Context) ([]float64, error) {
	var out []float64
	for r := 0; r < setupReps; r++ {
		runtime.GC()
		d, err := s.startServer(ctx)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if err := s.compileBuiltins(); err != nil {
			return nil, err
		}
		out = append(out, (d + time.Since(t0)).Seconds())
		if err := s.stopServer(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// genBodies builds the request pool and its references.
func (s *serveRun) genBodies(ctx context.Context, scale float64) error {
	rng := rand.New(rand.NewSource(s.seed))
	add := func(prog string, data []byte, gz bool) error {
		b := &body{program: prog, data: data, wire: data, ref: kernels[prog].oracle(data)}
		if gz {
			gz, err := client.GzipBytes(data)
			if err != nil {
				return err
			}
			b.wire, b.gz = gz, true
		}
		s.builtins = append(s.builtins, b)
		return nil
	}
	switch s.name {
	case "serve-bulk":
		// Bodies stay above 2×DefaultFrameBytes: the response starts
		// streaming while the request body is still being read.
		lo := float64(2*server.DefaultFrameBytes + 1)
		// Sizes are the same strata for every seed (log-uniform from lo to
		// 16×lo), so a seed changes the bytes but not the size mix that
		// latency follows; a quarter of each program's bodies go gzip'd.
		n := max(5, int(40*scale))
		for i := 0; i < n; i++ {
			size := int(lo * math.Pow(max(16*scale, 1), (float64(i*7%n)+0.5)/float64(n)))
			p := bulkPrograms[i%len(bulkPrograms)]
			data := genInput(p, size, rng)
			if p == "histogram16" {
				data = data[:len(data)/8*8]
			}
			if err := add(p, data, i/len(bulkPrograms)%4 == 0); err != nil {
				return err
			}
		}
	case "serve-small":
		for i := 0; i < 200; i++ {
			p := smallPrograms[i%2]
			n := strata(256, 4096, i*7%200, 200)
			data := genInput(p, n, rng)
			if p == "echo" {
				data = data[:n]
			}
			if err := add(p, data, i/2%2 == 0); err != nil {
				return err
			}
		}
		for k := 0; k < nidsSets; k++ {
			nk, err := nidsKernel(12, int64(k))
			if err != nil {
				return err
			}
			prog, err := nk.build()
			if err != nil {
				return err
			}
			s.asmBase = append(s.asmBase, udp.FormatAssembly(prog))
			im, err := udp.Compile(prog)
			if err != nil {
				return err
			}
			for j := 0; j < 16; j++ {
				data := cutRecords(nidsTrace(nk.nfa, 4096, rng), strata(256, 4096, j*5%16, 16))
				// The reference is the memory-word interpreter's output —
				// the machine's reference semantics — on the same chunking.
				res, err := udp.Exec(ctx, im, bytes.NewReader(data),
					udp.WithEngine(udp.EngineInterp), udp.WithChunker('\n'))
				if err != nil {
					return err
				}
				s.posted = append(s.posted, &body{set: k, data: data, wire: data, ref: res.Output()})
			}
		}
	}
	return nil
}

// strata returns the i-th of n evenly spaced sizes in [lo, hi).
func strata(lo, hi, i, n int) int {
	return lo + (hi-lo)*(2*i+1)/(2*n)
}

// nextOp draws the next operation of the mix. On serve-small the kinds
// follow a fixed cycle, a POST in every 50 operations and a transform with
// a posted program in every 10, so every window holds the same mix: a POST
// costs as much CPU as dozens of transforms, and a drawn share would move
// cpu_ns_per_byte from seed to seed. The seeded stream picks the bodies and
// rule sets.
func (s *serveRun) nextOp() op {
	s.opSeq++
	if s.name == "serve-small" {
		switch {
		case s.opSeq%50 == 0:
			k := s.rng.Intn(nidsSets)
			s.asmSeq++
			name := fmt.Sprintf("program nids_%d_%d_%d ", s.seed, k, s.asmSeq)
			return op{kind: opRegister, b: &body{set: k},
				asm: strings.Replace(s.asmBase[k], "program pattern-nfa ", name, 1)}
		case s.opSeq%10 == 5:
			return op{kind: opPosted, b: s.posted[s.rng.Intn(len(s.posted))]}
		}
	}
	return op{kind: opTransform, b: s.builtins[s.rng.Intn(len(s.builtins))]}
}

// startServer builds a server and serves it on a loopback listener until
// stopServer; the traced run wraps Handler() to time every request.
func (s *serveRun) startServer(ctx context.Context) (time.Duration, error) {
	t0 := time.Now()
	s.srv = server.New(server.Options{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	h := s.srv.Handler()
	if s.tr != nil {
		h = s.wrap(h)
	}
	s.httpSrv = &http.Server{Handler: h}
	s.done = make(chan error, 1)
	go func() { s.done <- s.httpSrv.Serve(l) }()
	s.conn = &http.Transport{
		MaxConnsPerHost:     s.conns,
		MaxIdleConnsPerHost: s.conns,
		DisableCompression:  true,
	}
	s.cl = client.New("http://"+l.Addr().String(), &http.Client{Transport: s.conn})
	for {
		if err := s.cl.Health(ctx); err == nil {
			break
		} else if ctx.Err() != nil {
			return 0, err
		}
		time.Sleep(time.Millisecond)
	}
	return time.Since(t0), nil
}

// compileBuiltins makes the server compile and lower the builtins the
// workload uses (the registry compiles lazily on first use otherwise).
func (s *serveRun) compileBuiltins() error {
	for _, name := range s.programs() {
		p, ok := s.srv.Registry().Lookup(name)
		if !ok {
			return fmt.Errorf("server has no builtin %q", name)
		}
		im, err := p.Image()
		if err != nil {
			return err
		}
		compile.For(im)
		if _, err := udp.NewLane(im, 0); err != nil {
			return err
		}
	}
	return nil
}

func (s *serveRun) stopServer() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.httpSrv.Shutdown(ctx)
	if serr := <-s.done; serr != nil && !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	s.conn.CloseIdleConnections()
	return err
}

// wrap times every request inside Handler(). The deferred record also runs
// when the handler aborts a stream with a panic.
func (s *serveRun) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		defer func() {
			end := time.Now()
			rid := w.Header().Get("X-Udp-Trace-Id")
			reg := r.URL.Path == "/v1/programs"
			if !reg && !strings.HasPrefix(r.URL.Path, "/v1/transform/") {
				return
			}
			id := s.tr.add("server.Handler", 0, rid, t0, end)
			s.hmu.Lock()
			s.handlers = append(s.handlers, handlerRec{rid: rid, register: reg, start: t0, dur: end.Sub(t0), spanID: id})
			s.hmu.Unlock()
		}()
		h.ServeHTTP(w, r)
	})
}

// phase is the outcome of one open-loop window.
type phase struct {
	rate     float64
	dur      time.Duration
	recs     []rec
	dispatch time.Time // window start
}

// openLoop offers ops at a fixed rate for d, timing each from its scheduled
// send time, over at most s.conns connections. Ops that cannot start on
// time wait in the generator's queue, and that wait counts.
func (s *serveRun) openLoop(ctx context.Context, rate float64, d time.Duration, parent int64) phase {
	n := int(rate * d.Seconds())
	// The queue holds every op of the window, so the dispatcher never
	// blocks: a backlog shows up as lateness, not as a slower schedule.
	queue := make(chan op, n+1)
	per := make([][]rec, s.conns)
	var wg sync.WaitGroup
	for w := 0; w < s.conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for o := range queue {
				per[w] = append(per[w], s.do(ctx, o, parent))
			}
		}(w)
	}
	t0 := time.Now()
	interval := time.Duration(float64(time.Second) / rate)
	for i := 0; i < n; i++ {
		o := s.nextOp()
		o.due = t0.Add(time.Duration(i) * interval)
		if wait := time.Until(o.due); wait > 0 {
			time.Sleep(wait)
		}
		queue <- o
	}
	close(queue)
	wg.Wait()
	p := phase{rate: rate, dur: d, dispatch: t0}
	for _, r := range per {
		p.recs = append(p.recs, r...)
	}
	return p
}

// do runs one operation and classifies its outcome.
func (s *serveRun) do(ctx context.Context, o op, parent int64) rec {
	r := rec{kind: o.kind, due: o.due, start: time.Now()}
	var opID int64
	if s.tr != nil {
		opID = s.tr.reserve()
	}
	if o.kind == opRegister {
		res, err := s.cl.Register(ctx, "", o.asm, "")
		r.end = time.Now()
		if err != nil {
			r.class, r.code = classify(err)
		} else {
			r.ok, r.code = true, http.StatusCreated
			s.amu.Lock()
			s.acked[o.b.set] = res.ID
			s.amu.Unlock()
		}
		s.tr.add("client.Register", opID, "", r.start, r.end)
		s.tr.finish(opID, "gen.op", parent, "", r.due, r.end)
		return r
	}
	prog := o.b.program
	if o.kind == opPosted {
		s.amu.Lock()
		prog = s.acked[o.b.set]
		s.amu.Unlock()
	}
	var opts []client.TransformOption
	if o.b.gz {
		opts = append(opts, client.WithGzippedBody())
	}
	var tm client.Timing
	if s.tr != nil {
		opts = append(opts, client.WithTiming(&tm), client.WithStages(&r.stages), client.WithTraceID(&r.rid))
	}
	rc, err := s.cl.Transform(ctx, prog, bytes.NewReader(o.b.wire), opts...)
	if err != nil {
		r.end = time.Now()
		r.class, r.code = classify(err)
	} else {
		r.code = http.StatusOK
		got, rerr := io.ReadAll(rc)
		rc.Close()
		r.end = time.Now()
		switch {
		case rerr != nil:
			r.class = "truncated"
		case !bytes.Equal(got, o.b.ref):
			r.class = "bad-output"
		default:
			r.ok, r.bytes = true, len(o.b.data)
		}
	}
	r.firstByte, r.attempts = tm.FirstByte, tm.Attempts
	if s.tr != nil {
		s.tr.linkReq(r.rid, s.tr.add("client.Transform", opID, r.rid, r.start, r.end))
		s.tr.finish(opID, "gen.op", parent, "", r.due, r.end)
	}
	return r
}

// classify names a failed call: the HTTP status class, or net.
func classify(err error) (string, int) {
	var ae *client.APIError
	if errors.As(err, &ae) {
		if ae.StatusCode == http.StatusTooManyRequests {
			return "429", ae.StatusCode
		}
		return "http_" + strconv.Itoa(ae.StatusCode), ae.StatusCode
	}
	return "net", 0
}

// verdict is a window's SLO outcome.
type verdict struct {
	pass     bool
	achieved float64       // ops ended within the window (plus the limit) per second; failures are judged as misses
	tail     time.Duration // transform latency at the SLO percentile, failures counted as misses
	backlog  int
}

// judge applies the max_rps_at_slo rule to a window: transform latency at
// the SLO percentile under the limit with every failed transform counted as
// a miss, at least 0.95 of the offered rate achieved, and no backlog left
// when the window closes.
func (s *serveRun) judge(p phase) verdict {
	end := p.dispatch.Add(p.dur)
	lat := make([]float64, 0, len(p.recs))
	done, backlog := 0, 0
	for _, r := range p.recs {
		switch {
		case r.kind == opRegister:
		case r.ok:
			lat = append(lat, float64(r.end.Sub(r.due)))
		default:
			lat = append(lat, math.Inf(1))
		}
		if !r.end.After(end.Add(s.spec.limit)) {
			done++
		}
		if r.start.After(end) {
			backlog++
		}
	}
	v := verdict{achieved: float64(done) / p.dur.Seconds(), tail: time.Duration(math.MaxInt64), backlog: backlog}
	if q := quantile(lat, s.spec.q); !math.IsInf(q, 1) {
		v.tail = time.Duration(q)
	}
	v.pass = len(p.recs) > 0 && v.tail <= s.spec.limit && v.achieved >= 0.95*p.rate &&
		backlog <= max(s.conns, len(p.recs)/100)
	return v
}

// searchCapacity looks for the highest offered rate that passes judge in a
// fixed number of steps: up (or down, when the fixed-rate phase failed) by
// 1.4× until the verdict flips, then bisection in log space. The result is
// interpolated in log space between the highest passing and the lowest
// failing rate, where their tail latencies cross the limit. It returns 0
// when no step passed, and every step taken.
func (s *serveRun) searchCapacity(ctx context.Context, first verdict, steps int, parent int64) (float64, []phase) {
	const factor = 1.4
	lo, hi := 0.0, math.Inf(1)
	var loV, hiV verdict
	if first.pass {
		lo, loV = s.spec.rate, first
	} else {
		hi, hiV = s.spec.rate, first
	}
	var taken []phase
	for i := 0; i < steps; i++ {
		rate := math.Sqrt(lo * hi)
		switch {
		case math.IsInf(hi, 1):
			rate = lo * factor
		case lo == 0:
			rate = hi / factor
		}
		p := s.openLoop(ctx, rate, s.spec.step, parent)
		taken = append(taken, p)
		if v := s.judge(p); v.pass {
			lo, loV = rate, v
		} else {
			hi, hiV = rate, v
		}
	}
	switch {
	case lo == 0:
		return 0, taken
	case math.IsInf(hi, 1):
		return lo, taken
	}
	return s.crossing(lo, loV, hi, hiV), taken
}

// crossing interpolates the rate at which the tail latency reaches the
// limit between a passing and a failing step.
func (s *serveRun) crossing(pass float64, pv verdict, fail float64, fv verdict) float64 {
	lim, tp, tf := float64(s.spec.limit), float64(pv.tail), float64(fv.tail)
	if fv.tail <= s.spec.limit || tp <= 0 || tf <= tp || fv.tail == math.MaxInt64 {
		return pass
	}
	f := math.Log(lim/tp) / math.Log(tf/tp)
	return pass * math.Pow(fail/pass, math.Min(math.Max(f, 0), 1))
}

// scrapeRequests sums udpserved_requests_total by status code.
func (s *serveRun) scrapeRequests(ctx context.Context) (map[string]uint64, error) {
	text, err := s.cl.Metrics(ctx)
	if err != nil {
		return nil, err
	}
	out := map[string]uint64{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "udpserved_requests_total{") {
			continue
		}
		i := strings.Index(line, `code="`)
		j := strings.LastIndexByte(line, ' ')
		if i < 0 || j < 0 {
			continue
		}
		code := line[i+6:]
		code = code[:strings.IndexByte(code, '"')]
		v, err := strconv.ParseUint(line[j+1:], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[code] += v
	}
	return out, sc.Err()
}

// agreement compares the server's per-code transform counts over a window
// with what the generator saw. It returns the per-code pairs [server,
// generator] and the number of requests on which they disagree beyond the
// streams the generator saw truncated: an aborted stream is a failure the
// program causes, already counted, and the server does not record it.
func agreement(before, after map[string]uint64, recs []rec) (map[string][2]uint64, int64, int64) {
	gen := map[string]uint64{}
	var truncated int64
	for _, r := range recs {
		if r.kind == opRegister {
			continue
		}
		code := "net"
		if r.code != 0 {
			code = strconv.Itoa(r.code)
		}
		gen[code]++
		if r.class == "truncated" {
			truncated++
		}
	}
	pairs := map[string][2]uint64{}
	for k := range gen {
		pairs[k] = [2]uint64{}
	}
	for k := range after {
		pairs[k] = [2]uint64{}
	}
	var mismatch, unexplained int64
	for k := range pairs {
		srv, g := int64(after[k]-before[k]), int64(gen[k])
		pairs[k] = [2]uint64{uint64(srv), uint64(g)}
		d := g - srv
		mismatch += max(d, -d)
		if k == "200" && d >= 0 && d <= truncated {
			continue
		}
		unexplained += max(d, -d)
	}
	return pairs, mismatch, unexplained
}

// stageNames lists the server's stage names in trailer order.
func stageNames() []string {
	out := make([]string, obs.NumStages)
	for st := obs.Stage(0); st < obs.NumStages; st++ {
		out[st] = st.String()
	}
	return out
}
