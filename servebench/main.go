// Command servebench is the serving benchmark: it boots real sketchtreed
// daemons on loopback, drives them closed-loop from this one process,
// checks their answers against an in-process reference, and prints the
// end-to-end metrics. With --trace 1 it instead replays the workload's
// inputs in-process through each layer's public functions, timing every
// call with a span of its own, and prints the per-layer metrics.
//
// Run it through run.sh from the repository root, which builds the
// daemon and this program first:
//
//	bash servebench/run.sh --workload mixed-dblp --seed 1 --seconds 10 --trace 0
//
// The last stdout line is the JSON result. Everything the run writes
// (daemon logs, the preload file, the result and span files) goes under
// .bench_build/ in the working directory. METRICS.md lists the
// workloads, the metrics and which layer each per-layer metric should
// move.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// runEnv is one invocation's settings and output locations.
type runEnv struct {
	root        string
	daemonBin   string
	outDir      string
	preloadPath string
	workload    string
	seed        uint64
	seconds     int
	trace       bool
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	code, err := run(ctx, os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "servebench: %v\n", err)
		if code == 0 {
			code = 2
		}
	}
	os.Exit(code)
}

// run executes one benchmark run. It returns exit code 1 when the run
// completed but something failed (the result line is still printed),
// and an error, with no result line, when the run could not complete.
func run(ctx context.Context, args []string, stdout io.Writer) (int, error) {
	fset := flag.NewFlagSet("servebench", flag.ContinueOnError)
	var (
		root     = fset.String("root", ".", "repository root (where .bench_build/ goes)")
		bin      = fset.String("daemon", "", "path to the built sketchtreed binary")
		workload = fset.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
		seed     = fset.Uint64("seed", 1, "input seed: documents, preload, catalog and draws")
		seconds  = fset.Int("seconds", 10, "measured run length")
		traced   = fset.Int("trace", 0, "0: end-to-end run against daemons; 1: traced per-layer replay")
	)
	if err := fset.Parse(args); err != nil {
		return 2, err
	}
	spec, ok := findWorkload(*workload)
	if !ok {
		return 2, fmt.Errorf("unknown --workload %q (want one of %s)", *workload, strings.Join(workloadNames(), ", "))
	}
	if *bin == "" {
		return 2, errors.New("--daemon is required (run.sh supplies it)")
	}
	if *seconds < 1 || *traced < 0 || *traced > 1 {
		return 2, fmt.Errorf("--seconds must be >= 1 and --trace 0 or 1")
	}
	absRoot, err := filepath.Abs(*root)
	if err != nil {
		return 2, err
	}
	env := &runEnv{
		root: absRoot, daemonBin: *bin, workload: spec.Name,
		seed: *seed, seconds: *seconds, trace: *traced == 1,
	}
	env.outDir = filepath.Join(absRoot, ".bench_build", fmt.Sprintf("%s-seed%d-trace%d", spec.Name, *seed, *traced))
	if err := os.MkdirAll(env.outDir, 0o755); err != nil {
		return 2, err
	}
	in, err := makeInputs(spec, *seed)
	if err != nil {
		return 2, fmt.Errorf("generating inputs: %w", err)
	}
	if in.Preload != nil {
		env.preloadPath = filepath.Join(env.outDir, "preload.xml")
		if err := os.WriteFile(env.preloadPath, in.Preload, 0o644); err != nil {
			return 2, err
		}
	}

	var rep *report
	if env.trace {
		rep, err = runTraced(ctx, env, spec, in)
	} else {
		rep, err = runEndToEnd(ctx, env, spec, in)
	}
	if err != nil {
		return 2, err
	}
	want := names(endToEnd)
	if env.trace {
		want = names(perLayer)
	}
	return emit(stdout, env, rep, want)
}

// report is what a run measured, before it is printed.
type report struct {
	metrics *metricSet
	tally   tally
	samples map[string]int
	extra   []string // human-readable lines printed before the metrics
}

// stamp identifies the code, host and settings behind a result.
type stamp struct {
	Workload   string         `json:"workload"`
	Seed       uint64         `json:"seed"`
	Seconds    int            `json:"seconds"`
	Trace      bool           `json:"trace"`
	Nproc      int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	GoVersion  string         `json:"go_version"`
	Commit     string         `json:"commit"`
	SourceHash string         `json:"source_sha256"`
	Samples    map[string]int `json:"samples"`
}

func emit(stdout io.Writer, env *runEnv, rep *report, want []string) (int, error) {
	st := stamp{
		Workload: env.workload, Seed: env.seed, Seconds: env.seconds, Trace: env.trace,
		Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit(env.root), SourceHash: sourceHash(env.root), Samples: rep.samples,
	}
	sj, err := json.Marshal(st)
	if err != nil {
		return 2, err
	}
	fmt.Fprintf(stdout, "stamp %s\n", sj)
	for _, l := range rep.extra {
		fmt.Fprintln(stdout, l)
	}
	m := rep.metrics
	for _, name := range m.names {
		v := m.vals[name]
		note := ""
		if n := m.notes[name]; n != "" {
			note = "  (" + n + ")"
		}
		fmt.Fprintf(stdout, "metric %-30s %14.6g %s%s\n", name, v.Value, v.Unit, note)
	}
	fmt.Fprintf(stdout, "failures attempted=%d errors=%d refused=%d bad_status=%d mismatch=%d failed_frac=%g\n",
		rep.tally.Attempted, rep.tally.Errors, rep.tally.Refused, rep.tally.BadStatus, rep.tally.Mismatch, rep.tally.FailedFrac())

	vals, err := m.restrict(want)
	if err != nil {
		return 2, err
	}
	res := result{
		Correct:   rep.tally.Failed() == 0,
		Attempted: rep.tally.Attempted,
		Failed:    rep.tally.Failed(),
		Metrics:   vals,
	}
	if res.Attempted < 1 {
		return 2, errors.New("nothing was attempted")
	}
	line, err := json.Marshal(res)
	if err != nil {
		return 2, err
	}
	full, err := json.MarshalIndent(struct {
		Stamp   stamp             `json:"stamp"`
		Result  result            `json:"result"`
		All     map[string]metric `json:"all_metrics"`
		Notes   map[string]string `json:"notes"`
		Failure tally             `json:"failures"`
	}{st, res, m.vals, m.notes, rep.tally}, "", "  ")
	if err != nil {
		return 2, err
	}
	if err := os.WriteFile(filepath.Join(env.outDir, "result.json"), full, 0o644); err != nil {
		return 2, err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1, nil
	}
	return 0, nil
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.Name
	}
	return out
}

// commit returns the checked-out git commit, or "unknown" when root is
// not the top of a git work tree (the source hash still identifies the
// code). git is not allowed to look above root for a repository.
func commit(root string) string {
	cmd := exec.Command("git", "-C", root, "rev-parse", "HEAD")
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(root))
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceHash digests every Go source file and go.mod under root,
// skipping dot-directories and testdata, in path order.
func sourceHash(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if p != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") || d.Name() == "go.mod" {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}
