package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sketchtree/internal/analysis"
	"sketchtree/internal/analysis/checks"
)

const moduleRoot = "../.."

func TestCleanTreeExitsZero(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-dir", moduleRoot}, &out, &errb); code != 0 {
		t.Fatalf("clean tree: exit %d, findings:\n%s%s", code, out.String(), errb.String())
	}
}

func TestJSONOutputIsMachineReadable(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-dir", moduleRoot, "-json"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	var rep report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("-json output does not parse: %v\n%s", err, out.String())
	}
	if len(rep.Findings) != 0 {
		t.Errorf("clean tree reported %d findings via JSON", len(rep.Findings))
	}
	if rep.CallGraph.Nodes == 0 || rep.CallGraph.Edges == 0 || rep.CallGraph.SCCs == 0 {
		t.Errorf("call-graph stats missing from report: %+v", rep.CallGraph)
	}
	if rep.CallGraph.SCCs > rep.CallGraph.Nodes {
		t.Errorf("more SCCs (%d) than nodes (%d)", rep.CallGraph.SCCs, rep.CallGraph.Nodes)
	}
}

// TestBudgetOverrunFailsTheRun pins the -budget contract: a budget the
// analysis cannot possibly meet exits 3, and a generous one exits 0.
func TestBudgetOverrunFailsTheRun(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-dir", moduleRoot, "-budget", "1ns"}, &out, &errb); code != 3 {
		t.Fatalf("-budget 1ns: exit %d, want 3\n%s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "over the") {
		t.Errorf("budget overrun not reported: %s", errb.String())
	}
	out.Reset()
	errb.Reset()
	if code := run([]string{"-dir", moduleRoot, "-budget", "10m"}, &out, &errb); code != 0 {
		t.Fatalf("-budget 10m on the clean tree: exit %d\n%s%s", code, out.String(), errb.String())
	}
}

// TestCheckSubsetLeavesOtherDirectivesAlone guards RunSelection: a
// //lint:allow for an analyzer that exists but was not selected must
// be neither "unknown" nor "stale".
func TestCheckSubsetLeavesOtherDirectivesAlone(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-dir", moduleRoot, "-checks", "safeparity"}, &out, &errb); code != 0 {
		t.Fatalf("-checks safeparity on the clean tree: exit %d, findings:\n%s", code, out.String())
	}
}

func TestUnknownCheckIsUsageError(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-checks", "nope"}, &out, &errb); code != 2 {
		t.Fatalf("unknown analyzer: exit %d, want 2", code)
	}
}

func TestListNamesEveryAnalyzer(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("-list: exit %d", code)
	}
	for _, a := range checks.All() {
		if !strings.Contains(out.String(), a.Name) {
			t.Errorf("-list output missing %s", a.Name)
		}
	}
}

// TestDeletedSafeWrapperIsCaught deletes one Safe wrapper from the
// module's view (overlay; the tree is untouched) and demands that
// safeparity flag the orphaned SketchTree method.
func TestDeletedSafeWrapperIsCaught(t *testing.T) {
	src, err := os.ReadFile(filepath.Join(moduleRoot, "concurrent.go"))
	if err != nil {
		t.Fatal(err)
	}
	const marker = "func (s *Safe) Merge("
	if !bytes.Contains(src, []byte(marker)) {
		t.Fatalf("concurrent.go no longer declares %q; update this test", marker)
	}
	mutated := bytes.Replace(src, []byte(marker), []byte("func (s *Safe) mergeDeletedForTest("), 1)
	m, err := analysis.Load(moduleRoot, map[string][]byte{"concurrent.go": mutated})
	if err != nil {
		t.Fatal(err)
	}
	diags := analysis.Run(m, []*analysis.Analyzer{checks.SafeParity})
	found := false
	for _, d := range diags {
		if d.Analyzer == "safeparity" && strings.Contains(d.Message, "Merge has no matching Safe wrapper") {
			found = true
		}
	}
	if !found {
		t.Errorf("deleting Safe.Merge produced no safeparity finding; got %v", diags)
	}
}

// TestUnsortedMapRangeInPersistIsCaught appends an unsorted map-range
// function to internal/core/persist.go in the module's view and
// demands a determinism finding.
func TestUnsortedMapRangeInPersistIsCaught(t *testing.T) {
	rel := "internal/core/persist.go"
	src, err := os.ReadFile(filepath.Join(moduleRoot, filepath.FromSlash(rel)))
	if err != nil {
		t.Fatal(err)
	}
	mutated := append(append([]byte{}, src...), []byte(`

func (e *Engine) marshalLeakForTest(m map[uint64]int64) []uint64 {
	var out []uint64
	for v := range m {
		out = append(out, v)
	}
	return out
}
`)...)
	m, err := analysis.Load(moduleRoot, map[string][]byte{rel: mutated})
	if err != nil {
		t.Fatal(err)
	}
	diags := analysis.Run(m, []*analysis.Analyzer{checks.Determinism})
	found := false
	for _, d := range diags {
		if d.Analyzer == "determinism" && d.File == rel && strings.Contains(d.Message, "ranges over map m") {
			found = true
		}
	}
	if !found {
		t.Errorf("unsorted map range in persist.go produced no determinism finding; got %v", diags)
	}
}

// TestDriverExitsNonzeroOnFindings runs the driver end-to-end over a
// throwaway module containing a violation.
func TestDriverExitsNonzeroOnFindings(t *testing.T) {
	dir := t.TempDir()
	bad := `package bad

func Marshal(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}
`
	if err := os.WriteFile(filepath.Join(dir, "persist.go"), []byte(bad), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := run([]string{"-dir", dir}, &out, &errb); code != 1 {
		t.Fatalf("module with violation: exit %d, want 1\n%s%s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "determinism") {
		t.Errorf("finding not printed: %s", out.String())
	}
}

// TestAnnotateEmitsWorkflowCommands replays a -json report as GitHub
// ::error annotations.
func TestAnnotateEmitsWorkflowCommands(t *testing.T) {
	report := `[{"file":"concurrent.go","line":12,"analyzer":"safeparity","message":"missing wrapper"}]`
	path := filepath.Join(t.TempDir(), "report.json")
	if err := os.WriteFile(path, []byte(report), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := run([]string{"-annotate", path}, &out, &errb); code != 1 {
		t.Fatalf("annotate with findings: exit %d, want 1", code)
	}
	want := "::error file=concurrent.go,line=12,title=sketchlint/safeparity::missing wrapper"
	if !strings.Contains(out.String(), want) {
		t.Errorf("annotation output %q does not contain %q", out.String(), want)
	}
	// An empty report annotates nothing and exits clean.
	empty := filepath.Join(t.TempDir(), "empty.json")
	if err := os.WriteFile(empty, []byte("[]"), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if code := run([]string{"-annotate", empty}, &out, &errb); code != 0 {
		t.Fatalf("annotate empty report: exit %d, want 0", code)
	}
	// The current object shape annotates identically to the legacy
	// array shape.
	obj := `{"findings":[{"file":"concurrent.go","line":12,"analyzer":"safeparity","message":"missing wrapper"}],"callgraph":{"nodes":1,"edges":1,"sccs":1}}`
	objPath := filepath.Join(t.TempDir(), "object.json")
	if err := os.WriteFile(objPath, []byte(obj), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if code := run([]string{"-annotate", objPath}, &out, &errb); code != 1 {
		t.Fatalf("annotate object report: exit %d, want 1", code)
	}
	if !strings.Contains(out.String(), want) {
		t.Errorf("object-shape annotation output %q does not contain %q", out.String(), want)
	}
}

// The overlay-mutation tests below re-analyze the real module with one
// regression injected into its in-memory view (the tree is untouched)
// and demand that the responsible interprocedural analyzer fires. They
// are the static equivalent of a failing regression test: delete the
// guard, watch the analyzer catch it.

// TestDeletedStopSelectIsALeak removes serveLoop's stop arm, turning
// the serving slot's ticker loop into an unstoppable goroutine.
func TestDeletedStopSelectIsALeak(t *testing.T) {
	src, err := os.ReadFile(filepath.Join(moduleRoot, "serve.go"))
	if err != nil {
		t.Fatal(err)
	}
	const guard = "case <-stop:\n\t\t\treturn\n\t\t"
	if !bytes.Contains(src, []byte(guard)) {
		t.Fatalf("serve.go no longer has serveLoop's stop arm; update this test")
	}
	mutated := bytes.Replace(src, []byte(guard), nil, 1)
	m, err := analysis.Load(moduleRoot, map[string][]byte{"serve.go": mutated})
	if err != nil {
		t.Fatal(err)
	}
	diags := analysis.Run(m, []*analysis.Analyzer{checks.GoroutineLeak})
	found := false
	for _, d := range diags {
		if d.Analyzer == "goroutineleak" && strings.Contains(d.Message, "serveLoop loops forever") {
			found = true
		}
	}
	if !found {
		t.Errorf("deleting the stop arm produced no goroutineleak finding; got %v", diags)
	}
}

// TestClosureInAddTreeEscapesTheHotPath introduces a per-call closure
// into the tagged AddTree and demands a hotpath finding.
func TestClosureInAddTreeEscapesTheHotPath(t *testing.T) {
	rel := "internal/core/engine.go"
	src, err := os.ReadFile(filepath.Join(moduleRoot, filepath.FromSlash(rel)))
	if err != nil {
		t.Fatal(err)
	}
	const call = "return e.apply(e.own, 1)"
	if !bytes.Contains(src, []byte(call)) {
		t.Fatalf("engine.go no longer has %q; update this test", call)
	}
	mutated := bytes.Replace(src, []byte(call),
		[]byte("delta := func() int64 { return 1 }\n\treturn e.apply(e.own, delta())"), 1)
	m, err := analysis.Load(moduleRoot, map[string][]byte{rel: mutated})
	if err != nil {
		t.Fatal(err)
	}
	diags := analysis.Run(m, []*analysis.Analyzer{checks.HotPath})
	found := false
	for _, d := range diags {
		if d.Analyzer == "hotpath" && d.File == rel && strings.Contains(d.Message, "closure allocation") {
			found = true
		}
	}
	if !found {
		t.Errorf("closure in AddTree produced no hotpath finding; got %v", diags)
	}
}

// TestReversedLockOrderIsACycle appends a pair of functions taking
// Safe.mu and Ingestor.mu in opposite orders.
func TestReversedLockOrderIsACycle(t *testing.T) {
	src, err := os.ReadFile(filepath.Join(moduleRoot, "concurrent.go"))
	if err != nil {
		t.Fatal(err)
	}
	mutated := append(append([]byte{}, src...), []byte(`

func lockBothForTest(s *Safe, in *Ingestor) {
	s.mu.Lock()
	in.mu.Lock()
	in.mu.Unlock()
	s.mu.Unlock()
}

func lockBothReversedForTest(s *Safe, in *Ingestor) {
	in.mu.Lock()
	s.mu.Lock()
	s.mu.Unlock()
	in.mu.Unlock()
}
`)...)
	m, err := analysis.Load(moduleRoot, map[string][]byte{"concurrent.go": mutated})
	if err != nil {
		t.Fatal(err)
	}
	diags := analysis.Run(m, []*analysis.Analyzer{checks.LockOrder})
	found := false
	for _, d := range diags {
		if d.Analyzer == "lockorder" && strings.Contains(d.Message, "lock-order cycle") {
			found = true
		}
	}
	if !found {
		t.Errorf("reversed lock order produced no lockorder finding; got %v", diags)
	}
}

// TestDroppedMarshalErrorIsCaught appends a function that discards
// Engine.MarshalBinary's error.
func TestDroppedMarshalErrorIsCaught(t *testing.T) {
	rel := "internal/core/persist.go"
	src, err := os.ReadFile(filepath.Join(moduleRoot, filepath.FromSlash(rel)))
	if err != nil {
		t.Fatal(err)
	}
	mutated := append(append([]byte{}, src...), []byte(`

func (e *Engine) snapshotLenForTest() {
	e.MarshalBinary()
}
`)...)
	m, err := analysis.Load(moduleRoot, map[string][]byte{rel: mutated})
	if err != nil {
		t.Fatal(err)
	}
	diags := analysis.Run(m, []*analysis.Analyzer{checks.ErrFlow})
	found := false
	for _, d := range diags {
		if d.Analyzer == "errflow" && d.File == rel && strings.Contains(d.Message, "e.MarshalBinary") {
			found = true
		}
	}
	if !found {
		t.Errorf("dropped MarshalBinary error produced no errflow finding; got %v", diags)
	}
}
