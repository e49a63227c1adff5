// Package analysistest runs an analyzer over fixture packages and matches
// its diagnostics against `// want` expectations, mirroring the workflow of
// golang.org/x/tools/go/analysis/analysistest without the dependency.
//
// Fixtures live under <testdata>/src/<importpath>/, a miniature GOPATH: a
// fixture that imports "embrace/internal/comm" resolves to the stub package
// at testdata/src/embrace/internal/comm, never to the real repo, so analyzer
// tests stay hermetic. Expectations annotate the offending line:
//
//	t.Send(1, 42, buf) // want `hand-numbered tag literal`
//
// Each `// want` comment holds one or more quoted or backquoted regular
// expressions, every one of which must match a diagnostic reported on that
// line; diagnostics with no matching expectation, and expectations with no
// matching diagnostic, fail the test.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"embrace/internal/analysis"
)

// TestData returns the canonical fixture root, ./testdata, as an absolute
// path.
func TestData() string {
	abs, err := filepath.Abs("testdata")
	if err != nil {
		panic(err)
	}
	return abs
}

// Run loads each fixture package under testdata/src, applies the analyzer,
// and checks its diagnostics against the fixtures' want expectations.
// Findings suppressed by justified directives are not matched against
// wants — fixtures assert what a user of the tool would see.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, paths ...string) {
	t.Helper()
	loader := analysis.NewLoader([]analysis.Root{{Prefix: "", Dir: filepath.Join(testdata, "src")}})
	runner := analysis.NewRunner([]*analysis.Analyzer{a}, loader.Fset)
	for _, path := range paths {
		dir := filepath.Join(testdata, "src", filepath.FromSlash(path))
		loaded, err := loader.LoadDir(dir, path, true)
		if err != nil {
			t.Errorf("loading %s: %v", path, err)
			continue
		}
		if len(loaded) == 0 {
			t.Errorf("fixture %s holds no Go package", path)
			continue
		}
		for _, unit := range loaded {
			diags, err := runner.Check(unit)
			if err != nil {
				t.Errorf("running %s on %s: %v", a.Name, unit.Path, err)
				continue
			}
			surviving := diags[:0:0]
			for _, d := range diags {
				if !d.Suppressed {
					surviving = append(surviving, d)
				}
			}
			match(t, loader.Fset, unit, surviving)
		}
	}
}

// expectation is one want-regexp on one line.
type expectation struct {
	file string
	line int
	rx   *regexp.Regexp
	met  bool
}

func match(t *testing.T, fset *token.FileSet, unit *analysis.Package, diags []analysis.Diagnostic) {
	t.Helper()
	var wants []*expectation
	for _, f := range unit.Files {
		wants = append(wants, parseWants(t, fset, f)...)
	}
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		matched := false
		for _, w := range wants {
			if !w.met && w.file == pos.Filename && w.line == pos.Line && w.rx.MatchString(d.Message) {
				w.met = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: %s", pos, d.Message)
		}
	}
	for _, w := range wants {
		if !w.met {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.rx)
		}
	}
}

// parseWants extracts `// want "rx" ...` expectations from a file.
func parseWants(t *testing.T, fset *token.FileSet, f *ast.File) []*expectation {
	t.Helper()
	var out []*expectation
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text, ok := strings.CutPrefix(c.Text, "// want ")
			if !ok {
				continue
			}
			pos := fset.Position(c.Pos())
			rxs, err := parsePatterns(text)
			if err != nil {
				t.Errorf("%s: bad want comment: %v", pos, err)
				continue
			}
			for _, rx := range rxs {
				out = append(out, &expectation{file: pos.Filename, line: pos.Line, rx: rx})
			}
		}
	}
	return out
}

// parsePatterns reads a sequence of Go string literals (quoted or
// backquoted) and compiles each as a regexp.
func parsePatterns(s string) ([]*regexp.Regexp, error) {
	var out []*regexp.Regexp
	for {
		s = strings.TrimLeft(s, " \t")
		if s == "" {
			break
		}
		var lit string
		switch s[0] {
		case '"':
			end := -1
			for i := 1; i < len(s); i++ {
				if s[i] == '"' && s[i-1] != '\\' {
					end = i
					break
				}
			}
			if end < 0 {
				return nil, fmt.Errorf("unterminated %q", s)
			}
			lit, s = s[:end+1], s[end+1:]
		case '`':
			end := strings.IndexByte(s[1:], '`')
			if end < 0 {
				return nil, fmt.Errorf("unterminated %q", s)
			}
			lit, s = s[:end+2], s[end+2:]
		default:
			return nil, fmt.Errorf("expected string literal at %q", s)
		}
		unq, err := strconv.Unquote(lit)
		if err != nil {
			return nil, fmt.Errorf("unquoting %s: %w", lit, err)
		}
		rx, err := regexp.Compile(unq)
		if err != nil {
			return nil, fmt.Errorf("compiling %s: %w", lit, err)
		}
		out = append(out, rx)
	}
	return out, nil
}
