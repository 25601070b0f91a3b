package server_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"udp"
	"udp/internal/client"
	"udp/internal/core"
	"udp/internal/kernels/csvparse"
	"udp/internal/kernels/histogram"
	"udp/internal/server"
)

func newTestServer(t *testing.T, opts server.Options) (*server.Server, *client.Client) {
	t.Helper()
	srv := server.New(opts)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, client.New(ts.URL, ts.Client())
}

// sampleCSV builds comma-separated rows with quoted fields and escaped
// quotes so the transform exercises the full parser FSM across many shards.
func sampleCSV(rows int) []byte {
	var b bytes.Buffer
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&b, "id-%d,\"name, with comma %d\",\"quote \"\"%d\"\"\",plain\n", i, i, i)
	}
	return b.Bytes()
}

func TestTransformGzipCSVStream(t *testing.T) {
	_, c := newTestServer(t, server.Options{})
	raw := sampleCSV(2000)
	got, err := c.TransformGzipBytes(context.Background(), "csvparse", raw,
		client.WithChunkBytes(512)) // force many shards
	if err != nil {
		t.Fatal(err)
	}
	want := csvparse.Parse(raw)
	if !bytes.Equal(got, want) {
		t.Fatalf("transformed output differs: got %d bytes, want %d", len(got), len(want))
	}
}

// TestTransformFullDuplex streams an echo body through a pipe: the client
// sends two frames' worth, waits for the 200 headers, and only then sends
// the rest. The handler flushes response frames while the request body is
// still arriving, so the server must keep reading the body after the
// headers go out instead of discarding it.
func TestTransformFullDuplex(t *testing.T) {
	srv := server.New(server.Options{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	frame := server.DefaultFrameBytes
	body := bytes.Repeat([]byte("full duplex echo\n"), 4*frame/17+1)

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	pr, pw := io.Pipe()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/transform/echo?chunk=4096", pr)
	if err != nil {
		t.Fatal(err)
	}
	headers := make(chan struct{})
	sent := make(chan error, 1)
	go func() {
		if _, err := pw.Write(body[:2*frame]); err != nil {
			sent <- err
			return
		}
		select {
		case <-headers:
		case <-ctx.Done():
			pw.CloseWithError(ctx.Err())
			sent <- ctx.Err()
			return
		}
		_, err := pw.Write(body[2*frame:])
		pw.CloseWithError(err)
		sent <- err
	}()
	resp, err := ts.Client().Do(req)
	close(headers)
	if err != nil {
		t.Fatalf("no response headers before the body ended: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading the response after %d of %d bytes: %v", len(got), len(body), err)
	}
	if err := <-sent; err != nil {
		t.Fatalf("sending the body: %v", err)
	}
	if !bytes.Equal(got, body) {
		t.Fatalf("echo returned %d bytes, want the %d sent", len(got), len(body))
	}
}

func TestTransformPlainBodyAndEmptyInput(t *testing.T) {
	_, c := newTestServer(t, server.Options{})
	raw := sampleCSV(50)
	got, err := c.TransformBytes(context.Background(), "csvparse", raw)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, csvparse.Parse(raw)) {
		t.Fatal("plain-body transform output differs")
	}
	empty, err := c.TransformBytes(context.Background(), "csvparse", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(empty) != 0 {
		t.Fatalf("empty input produced %d bytes", len(empty))
	}
}

func TestTransformHistogramFixedWidthRecords(t *testing.T) {
	_, c := newTestServer(t, server.Options{})
	edges := histogram.UniformEdges(16, 0, 1)
	values := []float64{-3, 0.01, 0.5, 0.99, 1.5, 0.25, 0.75, 0.0625, 0.9999}
	got, err := c.TransformBytes(context.Background(), "histogram16", histogram.KeyBytes(values))
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for _, v := range values {
		if b := histogram.Bin(edges, v); b >= 0 {
			want = append(want, byte(b))
		}
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("bin stream %v, want %v", got, want)
	}
}

func TestMetricsNonTrivialAfterRequest(t *testing.T) {
	_, c := newTestServer(t, server.Options{})
	raw := sampleCSV(500)
	if _, err := c.TransformGzipBytes(context.Background(), "csvparse", raw, client.WithChunkBytes(512)); err != nil {
		t.Fatal(err)
	}
	text, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	wants := []string{
		`udpserved_requests_total{program="csvparse",code="200"} 1`,
		`udpserved_shards_total{program="csvparse"}`,
		`udpserved_input_bytes_total{program="csvparse"} ` + fmt.Sprint(len(raw)),
		`udpserved_output_bytes_total{program="csvparse"}`,
		`udpserved_lane_cycles_total{program="csvparse"}`,
		`udpserved_request_seconds_count{program="csvparse"} 1`,
		`udpserved_programs_cached{kind="builtin"}`,
	}
	for _, want := range wants {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// Shards must be plural for a 512 B chunk target over this input.
	var shards int
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, `udpserved_shards_total{program="csvparse"}`) {
			fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%d", &shards)
		}
	}
	if shards < 2 {
		t.Fatalf("udpserved_shards_total = %d, want >= 2", shards)
	}
}

func TestSaturationReturns429(t *testing.T) {
	srv, c := newTestServer(t, server.Options{MaxInflight: 1})
	pr, pw := io.Pipe()
	done := make(chan error, 1)
	go func() {
		rc, err := c.Transform(context.Background(), "echo", pr)
		if err == nil {
			_, err = io.Copy(io.Discard, rc)
			rc.Close()
		}
		done <- err
	}()
	// Wait until the slow request holds the only transform slot.
	waitFor(t, func() bool { return srv.Metrics().Inflight() == 1 })

	_, err := c.TransformBytes(context.Background(), "echo", []byte("second"))
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated transform err = %v, want 429", err)
	}

	pw.Write([]byte("first request data"))
	pw.Close()
	if err := <-done; err != nil {
		t.Fatalf("pending transform failed after saturation test: %v", err)
	}
	// The slot is free again: the same request now succeeds.
	waitFor(t, func() bool { return srv.Metrics().Inflight() == 0 })
	if _, err := c.TransformBytes(context.Background(), "echo", []byte("second")); err != nil {
		t.Fatalf("transform after drain: %v", err)
	}
}

func TestGracefulShutdownDrainsInflight(t *testing.T) {
	srv := server.New(server.Options{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(l) }()
	c := client.New("http://"+l.Addr().String(), nil)

	pr, pw := io.Pipe()
	type result struct {
		out []byte
		err error
	}
	resCh := make(chan result, 1)
	go func() {
		rc, err := c.Transform(context.Background(), "echo", pr)
		if err != nil {
			resCh <- result{nil, err}
			return
		}
		defer rc.Close()
		out, err := io.ReadAll(rc)
		resCh <- result{out, err}
	}()
	pw.Write([]byte("before-shutdown "))
	waitFor(t, func() bool { return srv.Metrics().Inflight() == 1 })

	shutDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutDone <- srv.Shutdown(ctx)
	}()
	// While draining, new connections are refused but the in-flight
	// transform keeps streaming.
	time.Sleep(20 * time.Millisecond)
	pw.Write([]byte("after-shutdown-started"))
	pw.Close()

	res := <-resCh
	if res.err != nil {
		t.Fatalf("in-flight transform failed during shutdown: %v", res.err)
	}
	if got, want := string(res.out), "before-shutdown after-shutdown-started"; got != want {
		t.Fatalf("drained output %q, want %q", got, want)
	}
	if err := <-shutDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve: %v", err)
	}
}

func TestRegisterAndTransformPostedProgram(t *testing.T) {
	_, c := newTestServer(t, server.Options{})
	asmText := udp.FormatAssembly(csvparse.BuildProgramSep('|'))
	res, err := c.Register(context.Background(), "pipecsv", asmText, "")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(res.ID, "sha256:") || res.Cached {
		t.Fatalf("first registration: %+v", res)
	}
	// Idempotent re-POST hits the cache.
	res2, err := c.Register(context.Background(), "pipecsv", asmText, "")
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Cached || res2.ID != res.ID {
		t.Fatalf("re-registration: %+v", res2)
	}
	raw := []byte("a|b|c\n1|2|3\n")
	got, err := c.TransformBytes(context.Background(), res.ID, raw)
	if err != nil {
		t.Fatal(err)
	}
	if want := csvparse.ParseSep(raw, '|'); !bytes.Equal(got, want) {
		t.Fatalf("posted-program output %q, want %q", got, want)
	}
	// The listing shows built-ins and the posted entry.
	progs, err := c.Programs(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, p := range progs {
		if p.ID == res.ID && !p.Builtin && p.MaxLanes > 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("posted program missing from listing: %+v", progs)
	}
}

func TestRegisterBadAssembly(t *testing.T) {
	_, c := newTestServer(t, server.Options{})
	_, err := c.Register(context.Background(), "", "this is not udp assembly", "")
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusBadRequest {
		t.Fatalf("err = %v, want 400", err)
	}
}

func TestUnknownProgram404(t *testing.T) {
	_, c := newTestServer(t, server.Options{})
	_, err := c.TransformBytes(context.Background(), "no-such-kernel", []byte("x"))
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusNotFound {
		t.Fatalf("err = %v, want 404", err)
	}
}

func TestBodyLimitReturns413(t *testing.T) {
	_, c := newTestServer(t, server.Options{MaxBodyBytes: 1024})
	_, err := c.TransformBytes(context.Background(), "echo", bytes.Repeat([]byte("x"), 8192))
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("err = %v, want 413", err)
	}
}

func TestRejectedInputReturns422(t *testing.T) {
	_, c := newTestServer(t, server.Options{})
	// A program that only accepts 'a' symbols: anything else is a
	// dispatch error, which must surface as 422, not 500.
	p := core.NewProgram("strict", 8)
	s := p.AddState("s", core.ModeStream)
	s.On('a', s, core.AOut8(core.RSym))
	res, err := c.Register(context.Background(), "strict", udp.FormatAssembly(p), "none")
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.TransformBytes(context.Background(), res.ID, []byte("abba"))
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("err = %v, want 422", err)
	}
}

// TestWideProgramReturns400 posts a one-state program with 32-bit symbols,
// whose probe window is wider than the lane window: registration must fail
// with 400 at once, not try to lay out a 2^31-word image.
func TestWideProgramReturns400(t *testing.T) {
	_, c := newTestServer(t, server.Options{})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	_, err := c.Register(ctx, "wide", "program w symbol 32\nstate s stream\n  on 1 -> s\n", "none")
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusBadRequest {
		t.Fatalf("err = %v, want 400", err)
	}
	if !strings.Contains(ae.Message, "compile") {
		t.Fatalf("rejected for %q, want a compile (layout) error", ae.Message)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("rejection took %v, want under 1s", d)
	}
}

func TestBadGzipBodyReturns400(t *testing.T) {
	_, c := newTestServer(t, server.Options{})
	_, err := c.TransformBytes(context.Background(), "csvparse", []byte("not gzip"),
		client.WithGzippedBody())
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusBadRequest {
		t.Fatalf("err = %v, want 400", err)
	}
}

func TestRegistryLRUEviction(t *testing.T) {
	reg := server.NewRegistry(2)
	mkAsm := func(sep byte) []byte {
		return []byte(udp.FormatAssembly(csvparse.BuildProgramSep(sep)))
	}
	p1, _, err := reg.Register(mkAsm('|'), "p1", server.ChunkSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := reg.Register(mkAsm(';'), "p2", server.ChunkSpec{}); err != nil {
		t.Fatal(err)
	}
	// Touch p1 so p2 becomes least recently used, then overflow.
	if _, ok := reg.Lookup(p1.ID); !ok {
		t.Fatal("p1 missing before eviction")
	}
	if _, _, err := reg.Register(mkAsm('\t'), "p3", server.ChunkSpec{}); err != nil {
		t.Fatal(err)
	}
	if _, ok := reg.Lookup(p1.ID); !ok {
		t.Fatal("recently used p1 was evicted")
	}
	_, posted, evictions := reg.Counts()
	if posted != 2 || evictions != 1 {
		t.Fatalf("posted %d evictions %d, want 2 and 1", posted, evictions)
	}
}

func TestHealthz(t *testing.T) {
	_, c := newTestServer(t, server.Options{})
	if err := c.Health(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestTransformEngineHeader(t *testing.T) {
	srv := server.New(server.Options{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	raw := sampleCSV(50)
	want := csvparse.Parse(raw)

	// The client option sets the request header; every tier transforms
	// identically and the trailer reports the tier that actually ran.
	c := client.New(ts.URL, ts.Client())
	for _, eng := range []string{"auto", "interp", "decoded", "compiled"} {
		got, err := c.TransformBytes(context.Background(), "csvparse", raw, client.WithEngine(eng))
		if err != nil {
			t.Fatalf("engine %s: %v", eng, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("engine %s: output differs", eng)
		}
	}

	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/transform/csvparse", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Udp-Engine", "interp")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadAll(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	// The ran-on trailer is only available after the body is drained.
	if got := resp.Trailer.Get("X-Udp-Engine"); got != "interp" {
		t.Fatalf("X-Udp-Engine trailer = %q, want interp", got)
	}
}

func TestTransformUnknownEngine422(t *testing.T) {
	_, c := newTestServer(t, server.Options{})
	_, err := c.TransformBytes(context.Background(), "csvparse", sampleCSV(5), client.WithEngine("warp"))
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("want 422 APIError, got %v", err)
	}
	if !strings.Contains(ae.Message, "warp") {
		t.Fatalf("error should name the bad engine: %q", ae.Message)
	}
}

func TestServerDefaultEngine(t *testing.T) {
	srv := server.New(server.Options{Engine: udp.EngineInterp})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	resp, err := ts.Client().Post(ts.URL+"/v1/transform/csvparse", "", bytes.NewReader(sampleCSV(20)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadAll(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Trailer.Get("X-Udp-Engine"); got != "interp" {
		t.Fatalf("X-Udp-Engine trailer = %q, want interp (server default)", got)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached within 5s")
}
