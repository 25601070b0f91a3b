package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"

	"udp"
	"udp/internal/automata"
	"udp/internal/core"
	"udp/internal/etl"
	"udp/internal/kernels/csvparse"
	"udp/internal/kernels/histogram"
	"udp/internal/kernels/jsonparse"
	"udp/internal/kernels/pattern"
	"udp/internal/kernels/xmlparse"
	"udp/internal/workload"
)

// kernel is one program the benchmark runs, with the CPU oracle its output
// is checked against.
type kernel struct {
	name   string
	build  func() (*core.Program, error)
	sep    byte // record separator for aligned chunking
	hasSep bool
	// oracle computes the expected output bytes for an input.
	oracle func([]byte) []byte
	// nfa marks the multi-active NIDS set: it runs only on the decoded
	// and interp tiers, and is checked by its matches, not its output.
	nfa *pattern.Set
}

var histEdges = histogram.UniformEdges(16, 0, 1)

func echoProgram() (*core.Program, error) {
	p := core.NewProgram("echo", 8)
	s := p.AddState("s", core.ModeStream)
	s.Majority(s, core.AOut8(core.RSym))
	return p, nil
}

// histOracle is the GSL-style per-value bin search over the 8-byte keys:
// one output byte per in-range value.
func histOracle(keys []byte) []byte {
	out := make([]byte, 0, len(keys)/8)
	for i := 0; i+8 <= len(keys); i += 8 {
		v := keyValue(keys[i : i+8])
		if b := histogram.Bin(histEdges, v); b >= 0 {
			out = append(out, byte(b))
		}
	}
	return out
}

// keyValue inverts histogram.OrderKey over one big-endian key.
func keyValue(k []byte) float64 {
	u := binary.BigEndian.Uint64(k)
	if u&(1<<63) != 0 {
		return math.Float64frombits(u &^ (1 << 63))
	}
	return math.Float64frombits(^u)
}

var kernels = map[string]*kernel{
	"echo": {name: "echo", build: echoProgram, oracle: func(b []byte) []byte { return b }},
	"csvparse": {name: "csvparse", sep: '\n', hasSep: true,
		build:  func() (*core.Program, error) { return csvparse.BuildProgram(), nil },
		oracle: func(b []byte) []byte { return csvparse.ParseSep(b, ',') }},
	"csvpipe": {name: "csvpipe", sep: '\n', hasSep: true,
		build:  func() (*core.Program, error) { return csvparse.BuildProgramSep('|'), nil },
		oracle: func(b []byte) []byte { return csvparse.ParseSep(b, '|') }},
	"jsonparse": {name: "jsonparse", sep: '\n', hasSep: true,
		build:  func() (*core.Program, error) { return jsonparse.BuildProgram(), nil },
		oracle: jsonparse.Tokenize},
	"xmlparse": {name: "xmlparse", sep: '\n', hasSep: true,
		build:  func() (*core.Program, error) { return xmlparse.BuildProgram(), nil },
		oracle: xmlparse.Tokenize},
	"histogram16": {name: "histogram16",
		build:  func() (*core.Program, error) { return histogram.BuildProgramEmit(histEdges) },
		oracle: histOracle},
}

// nidsKernel builds multi-active NIDS rule set number set. The rule sets
// are part of the programs under test, fixed like the builtin kernels; only
// the traffic they scan comes from the run's seed.
func nidsKernel(rules int, set int64) (*kernel, error) {
	ps, err := pattern.Compile(workload.NIDSPatterns(rules, true, 1000+set))
	if err != nil {
		return nil, err
	}
	return &kernel{name: "nids", sep: '\n', hasSep: true, nfa: ps, build: ps.BuildNFA}, nil
}

// genInput makes at least n bytes of the kernel's input, cut on a record
// boundary (or an 8-byte key boundary for the histogram).
func genInput(kernel string, n int, rng *rand.Rand) []byte {
	seed := rng.Int63()
	var b []byte
	switch kernel {
	case "echo":
		return workload.Text(workload.TextEnglish, n, seed)
	case "csvpipe":
		b = etl.LineitemCSV(n/100+2, seed)
	case "csvparse":
		b = workload.CrimesCSV(workload.CSVSpec{Name: "crimes", Rows: n/110 + 2, Seed: seed})
	case "jsonparse":
		b = workload.JSONRecords(n/150+2, seed)
	case "xmlparse":
		b = xmlRows(n, rng)
	case "histogram16":
		return histogram.KeyBytes(workload.FloatColumn((n+7)/8, workload.DistUniform, 0, 1, seed))
	default:
		panic("genInput: unknown kernel " + kernel)
	}
	return cutRecords(b, n)
}

// cutRecords trims b to the first record boundary at or after n bytes.
func cutRecords(b []byte, n int) []byte {
	if len(b) <= n {
		return b
	}
	if i := bytes.IndexByte(b[n-1:], '\n'); i >= 0 {
		return b[:n+i]
	}
	return b
}

var xmlKinds = []string{"theft", "battery", "assault", "fraud", "arson"}

// xmlRows generates newline-separated XML records with attributes in both
// quote styles, entities and nested elements.
func xmlRows(n int, rng *rand.Rand) []byte {
	var b bytes.Buffer
	for i := 0; b.Len() < n; i++ {
		fmt.Fprintf(&b, `<row id="%d" kind='%s'><v>%s &amp; %d</v><n a="%d"/></row>`+"\n",
			100000+i, xmlKinds[rng.Intn(len(xmlKinds))],
			workload.Text(workload.TextEnglish, 8+rng.Intn(40), rng.Int63())[:8],
			rng.Intn(1000), rng.Intn(50))
	}
	return b.Bytes()
}

// nidsTrace is payload-like traffic with planted rule fragments, as
// newline-separated records so a record chunker never splits a match.
func nidsTrace(set *pattern.Set, n int, rng *rand.Rand) []byte {
	var b bytes.Buffer
	for b.Len() < n {
		line := workload.NetworkTrace(512+rng.Intn(1024), set.Patterns, 0.05, rng.Int63())
		b.Write(bytes.ReplaceAll(line, []byte{'\n'}, []byte{' '}))
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// wantMatches is the CPU frontier matcher's verdict per shard.
func wantMatches(set *pattern.Set, shards [][]byte) [][]automata.MatchEvent {
	out := make([][]automata.MatchEvent, len(shards))
	for i, s := range shards {
		out[i] = set.MatchCPUNFA(s)
	}
	return out
}

// sameMatches compares lane accept logs per shard against the oracle.
func sameMatches(got [][]udp.Match, want [][]automata.MatchEvent) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		g := pattern.Dedup(got[i])
		if len(g) != len(want[i]) {
			return false
		}
		for j := range g {
			if g[j] != want[i][j] {
				return false
			}
		}
	}
	return true
}
