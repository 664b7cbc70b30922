// Command benchjson records one point of the benchmark trajectory: it
// runs the repository benchmark (the command BENCHMARK.json declares)
// for every workload BENCHMARK.json lists, at the benchmark's default
// seed and run length, once untraced (end-to-end metrics) and once
// traced (per-layer metrics), and writes each run's final JSON line,
// with its digest lines, into one JSON document tagged with the
// commit, the CPU count and the Go version. Run it from the repository
// root:
//
//	go run ./scripts/benchjson -o BENCH_<pr>.json
//
// When the tracked files differ from the commit, the document also
// holds tree_diff_sha256, the SHA-256 of
//
//	git diff --full-index --binary HEAD -- . ':(exclude)BENCH_*.json'
//
// so a point recorded before commit names the code it measured: the
// same command with HEAD replaced by "<commit> <later commit>" gives
// the same hash when the later commit holds that tree. The trajectory
// files are left out because writing one changes the tree.
//
// It also asserts detector.fast_path_read_ratio per workload, so a
// speedup that shifts the shadow-state mix does not go unnoticed: the
// nightly reads ~0.878 and both ingest workloads 1.0. The document is
// written either way; a failed assertion makes the exit status 1.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"
)

// fastPathRatio is the detector.fast_path_read_ratio each workload must
// read, within fastPathTolerance.
var fastPathRatio = map[string]float64{
	"ingest-resident": 1.0,
	"ingest-evict":    1.0,
	"nightly":         0.878,
}

const fastPathTolerance = 0.001

// benchmark is the part of BENCHMARK.json benchjson reads.
type benchmark struct {
	Command   []string `json:"command"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

// point is the document benchjson writes.
type point struct {
	Commit         string `json:"commit"`
	Dirty          bool   `json:"dirty"`                      // the tracked files differed from Commit
	TreeDiffSHA256 string `json:"tree_diff_sha256,omitempty"` // set when Dirty; see the package comment
	NProc          int    `json:"nproc"`
	GoVersion      string `json:"go_version"`
	Runs           []run  `json:"runs"`
}

// run is one benchmark invocation.
type run struct {
	Workload string          `json:"workload"`
	Trace    int             `json:"trace"`
	Digests  []string        `json:"digests,omitempty"`
	Result   json.RawMessage `json:"result"`
}

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	flag.Parse()
	if flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	b, err := readBenchmark("BENCHMARK.json")
	if err != nil {
		fail(err)
	}
	p := point{
		Commit:    command("git", "rev-parse", "HEAD"),
		NProc:     runtime.NumCPU(),
		GoVersion: command("go", "env", "GOVERSION"),
	}
	diff, err := exec.Command("git", "diff", "--full-index", "--binary", "HEAD",
		"--", ".", ":(exclude)BENCH_*.json").Output()
	if err != nil {
		fail(fmt.Errorf("git diff: %w", err))
	}
	if len(diff) > 0 {
		sum := sha256.Sum256(diff)
		p.Dirty, p.TreeDiffSHA256 = true, hex.EncodeToString(sum[:])
	}
	var failures []string
	for _, trace := range []int{0, 1} {
		for _, w := range b.Workloads {
			r, err := bench(b.Command, w.Name, trace)
			if err != nil {
				fail(err)
			}
			p.Runs = append(p.Runs, r)
			if want, ok := fastPathRatio[w.Name]; ok && trace == 1 {
				if msg := checkRatio(r, want); msg != "" {
					failures = append(failures, w.Name+": "+msg)
				}
			}
		}
	}
	doc, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		fail(err)
	}
	doc = append(doc, '\n')
	if *out == "" {
		os.Stdout.Write(doc)
	} else if err := os.WriteFile(*out, doc, 0o644); err != nil {
		fail(err)
	}
	for _, f := range failures {
		fmt.Fprintln(os.Stderr, "benchjson: detector.fast_path_read_ratio:", f)
	}
	if len(failures) > 0 {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}

// readBenchmark reads the benchmark's command and workloads.
func readBenchmark(path string) (benchmark, error) {
	var b benchmark
	data, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return b, fmt.Errorf("%s: %w", path, err)
	}
	if len(b.Command) == 0 || len(b.Workloads) == 0 {
		return b, fmt.Errorf("%s: no command or no workloads", path)
	}
	return b, nil
}

// command returns the trimmed standard output of a command, or
// "unknown" if it fails.
func command(name string, args ...string) string {
	b, err := exec.Command(name, args...).Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// bench runs one workload and returns its final JSON line and the
// digest lines of the report before it.
func bench(argv []string, workload string, trace int) (run, error) {
	fmt.Fprintf(os.Stderr, "benchjson: %s trace=%d\n", workload, trace)
	args := append(slices.Clone(argv[1:]), "--workload", workload, "--trace", strconv.Itoa(trace))
	cmd := exec.Command(argv[0], args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return run{}, fmt.Errorf("%s trace=%d: %w", workload, trace, err)
	}
	r := run{Workload: workload, Trace: trace}
	for _, line := range strings.Split(string(stdout), "\n") {
		switch {
		case strings.HasPrefix(line, "digest "):
			r.Digests = append(r.Digests, strings.Join(strings.Fields(line), " "))
		case strings.HasPrefix(line, "{") && json.Valid([]byte(line)):
			r.Result = json.RawMessage(line)
		}
	}
	if r.Result == nil {
		return run{}, fmt.Errorf("%s trace=%d: no JSON result line", workload, trace)
	}
	return r, nil
}

// checkRatio returns why r's detector.fast_path_read_ratio is not
// want, or "" if it is.
func checkRatio(r run, want float64) string {
	var res struct {
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(r.Result, &res); err != nil {
		return err.Error()
	}
	m, ok := res.Metrics["detector.fast_path_read_ratio"]
	if !ok {
		return "missing from the traced run"
	}
	if math.Abs(m.Value-want) > fastPathTolerance {
		return fmt.Sprintf("read %.4f, want %.3f", m.Value, want)
	}
	return ""
}
