package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// provenance records what a result was measured on and with.
type provenance struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GitCommit  string `json:"git_commit"`
	Source     string `json:"source_sha256"`
	Seed       int64  `json:"seed"`
	Lanes      int    `json:"lanes"`
}

func readProvenance(cfg config) provenance {
	return provenance{
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GitCommit:  gitCommit("."),
		Source:     sourceHash("."),
		Seed:       cfg.seed,
		Lanes:      cfg.lanes,
	}
}

func (p provenance) print(w io.Writer) {
	fmt.Fprintf(w, "host: cpu=%q nproc=%d gomaxprocs=%d %s commit=%s source=%s seed=%d\n",
		p.CPUModel, p.NProc, p.GOMAXPROCS, p.GoVersion, p.GitCommit, p.Source, p.Seed)
}

// incomparable explains why two results come from differently shaped
// hosts, or returns "".
func (p provenance) incomparable(q provenance) string {
	switch {
	case p.CPUModel != q.CPUModel:
		return fmt.Sprintf("cpu %q vs %q", p.CPUModel, q.CPUModel)
	case p.NProc != q.NProc:
		return fmt.Sprintf("nproc %d vs %d", p.NProc, q.NProc)
	case p.GOMAXPROCS != q.GOMAXPROCS:
		return fmt.Sprintf("GOMAXPROCS %d vs %d", p.GOMAXPROCS, q.GOMAXPROCS)
	case p.GoVersion != q.GoVersion:
		return fmt.Sprintf("go %s vs %s", p.GoVersion, q.GoVersion)
	}
	return ""
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// gitCommit reads HEAD from a .git directory without running git; a
// checkout without one reports "none".
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return ref
	}
	if sha, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(sha))
	}
	return "unknown"
}

// sourceHash digests every Go source and go.mod under root (build output
// and hidden directories excluded), identifying the code measured even
// where there is no git metadata.
func sourceHash(root string) string {
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		buf, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(f), len(buf))
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
