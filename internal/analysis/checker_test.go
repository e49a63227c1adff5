package analysis_test

import (
	"go/ast"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"embrace/internal/analysis"
)

// toyAnalyzer flags every call to a function named boom, a minimal analyzer
// for exercising the directive and suppression machinery.
func toyAnalyzer(name string) *analysis.Analyzer {
	return &analysis.Analyzer{
		Name: name,
		Doc:  "flags calls to boom",
		Run: func(pass *analysis.Pass) (any, error) {
			for _, f := range pass.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "boom" {
						pass.Reportf(call.Pos(), "boom call")
					}
					return true
				})
			}
			return nil, nil
		},
	}
}

// checkSrc loads src as a one-file package from a temp dir (under subdir if
// non-empty) and runs the analyzers over it.
func checkSrc(t *testing.T, subdir, src string, analyzers ...*analysis.Analyzer) []analysis.Diagnostic {
	t.Helper()
	dir := t.TempDir()
	pkgDir := dir
	importPath := "tmpcheck"
	if subdir != "" {
		pkgDir = filepath.Join(dir, subdir)
		importPath = "tmpcheck/" + subdir
		if err := os.MkdirAll(pkgDir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(pkgDir, "p.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	loader := analysis.NewLoader([]analysis.Root{{Prefix: "tmpcheck", Dir: dir}})
	units, err := loader.LoadDir(pkgDir, importPath, false)
	if err != nil {
		t.Fatal(err)
	}
	runner := analysis.NewRunner(analyzers, loader.Fset)
	var diags []analysis.Diagnostic
	for _, unit := range units {
		ds, err := runner.Check(unit)
		if err != nil {
			t.Fatal(err)
		}
		diags = append(diags, ds...)
	}
	return diags
}

func messages(diags []analysis.Diagnostic) []string {
	var out []string
	for _, d := range diags {
		s := d.Message
		if d.Suppressed {
			s = "[suppressed] " + s
		}
		out = append(out, s)
	}
	return out
}

func wantDiag(t *testing.T, diags []analysis.Diagnostic, substr string, suppressed bool) {
	t.Helper()
	for _, d := range diags {
		if strings.Contains(d.Message, substr) && d.Suppressed == suppressed {
			return
		}
	}
	t.Errorf("no diagnostic matching %q (suppressed=%v); got %q", substr, suppressed, messages(diags))
}

func wantNoDiag(t *testing.T, diags []analysis.Diagnostic, substr string) {
	t.Helper()
	for _, d := range diags {
		if strings.Contains(d.Message, substr) {
			t.Errorf("unwanted diagnostic %q; got %q", substr, messages(diags))
			return
		}
	}
}

func TestSuppressSameLineAndLineAbove(t *testing.T) {
	diags := checkSrc(t, "", `package p

func boom() {}

func f() {
	boom() //embrace:allow toy covered by integration test
	//embrace:allow toy covered by integration test
	boom()
}
`, toyAnalyzer("toy"))
	suppressed := 0
	for _, d := range diags {
		if d.Analyzer == "toy" {
			if !d.Suppressed {
				t.Errorf("unsuppressed toy finding: %s", d.Message)
			}
			suppressed++
		}
	}
	if suppressed != 2 {
		t.Errorf("suppressed %d toy findings, want 2", suppressed)
	}
	wantNoDiag(t, diags, "stale")
}

func TestBlockCommentDirective(t *testing.T) {
	diags := checkSrc(t, "", `package p

func boom() {}

func f() {
	/*embrace:allow toy block form is honored too*/ boom()
}
`, toyAnalyzer("toy"))
	wantDiag(t, diags, "boom call", true)
	wantNoDiag(t, diags, "stale")
	wantNoDiag(t, diags, "justification")
}

func TestMultiAnalyzerDirective(t *testing.T) {
	diags := checkSrc(t, "", `package p

func boom() {}

func f() {
	boom() //embrace:allow toy,toy2 one line silences both
}
`, toyAnalyzer("toy"), toyAnalyzer("toy2"))
	byName := map[string]int{}
	for _, d := range diags {
		if !d.Suppressed {
			t.Errorf("unsuppressed finding: %s (%s)", d.Message, d.Analyzer)
		}
		byName[d.Analyzer]++
	}
	if byName["toy"] != 1 || byName["toy2"] != 1 {
		t.Errorf("suppressed counts per analyzer = %v, want one each", byName)
	}
	wantNoDiag(t, diags, "stale")
}

func TestDirectiveOnFirstLine(t *testing.T) {
	// A directive on line 1 has no line above it; the audit must neither
	// panic nor associate it with anything, so it reports as stale.
	diags := checkSrc(t, "", `//embrace:allow toy nothing to suppress up here
package p

func boom() {}

func f() { boom() }
`, toyAnalyzer("toy"))
	wantDiag(t, diags, "boom call", false)
	wantDiag(t, diags, "stale embrace:allow toy", false)
}

func TestStaleDirective(t *testing.T) {
	diags := checkSrc(t, "", `package p

func fine() {}

func f() {
	fine() //embrace:allow toy this suppresses nothing anymore
}
`, toyAnalyzer("toy"))
	wantDiag(t, diags, "stale embrace:allow toy: suppresses no finding", false)
}

func TestUnknownAnalyzerDirective(t *testing.T) {
	diags := checkSrc(t, "", `package p

func boom() {}

func f() {
	boom() //embrace:allow nosuch justified but misaddressed
}
`, toyAnalyzer("toy"))
	wantDiag(t, diags, `unknown analyzer "nosuch"`, false)
	// The misaddressed directive must not suppress the finding.
	wantDiag(t, diags, "boom call", false)
}

func TestUnjustifiedAndEmptyDirectives(t *testing.T) {
	diags := checkSrc(t, "", `package p

func boom() {}

func f() {
	boom() //embrace:allow toy
	//embrace:allow
	boom()
}
`, toyAnalyzer("toy"))
	wantDiag(t, diags, "needs a justification", false)
	wantDiag(t, diags, "names no analyzer", false)
	// Neither malformed directive suppresses.
	unsuppressed := 0
	for _, d := range diags {
		if d.Analyzer == "toy" && !d.Suppressed {
			unsuppressed++
		}
	}
	if unsuppressed != 2 {
		t.Errorf("%d unsuppressed toy findings, want 2", unsuppressed)
	}
}

func TestDirectiveInsideTestdataDir(t *testing.T) {
	// Fixture packages under testdata use directives too (analyzers test
	// their own suppression paths); loading such a dir directly must honor
	// them like any other package.
	diags := checkSrc(t, "testdata", `package p

func boom() {}

func f() {
	boom() //embrace:allow toy fixtures carry directives too
}
`, toyAnalyzer("toy"))
	wantDiag(t, diags, "boom call", true)
	wantNoDiag(t, diags, "stale")
}
