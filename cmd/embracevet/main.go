// Command embracevet runs the repo's custom static analyzers over the
// module and reports violations of its concurrency, determinism,
// tag-discipline, slice-aliasing and allocation invariants.
//
// Usage:
//
//	go run ./cmd/embracevet ./...
//	go run ./cmd/embracevet -json ./... > embracevet.json
//	go run ./cmd/embracevet ./internal/collective ./internal/sched
//
// Each pattern is a directory path relative to the module root; a trailing
// /... recurses. Every analyzer checks one package at a time, so each
// package is checked as soon as it is loaded.
//
// Findings print as file:line:col: message (analyzer). With -json, every
// diagnostic — including suppressed ones — prints as one JSON object per
// line ({"file","line","col","analyzer","message","suppressed"}) on stdout,
// and a per-analyzer finding/timing summary goes to stderr. A finding is
// suppressed by a justified directive on its line or the line above:
//
//	//embrace:allow <analyzer> <why this exception is safe>
//
// Exit codes:
//
//	0  no findings (suppressed findings do not count)
//	1  at least one non-suppressed finding
//	2  usage, load, or typecheck error
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"embrace/internal/analysis"
	"embrace/internal/analysis/determinism"
	"embrace/internal/analysis/hotalloc"
	"embrace/internal/analysis/locksend"
	"embrace/internal/analysis/rawtag"
	"embrace/internal/analysis/sliceret"
)

var analyzers = []*analysis.Analyzer{
	rawtag.Analyzer,
	determinism.Analyzer,
	locksend.Analyzer,
	sliceret.Analyzer,
	hotalloc.Analyzer,
}

// jsonDiag is the -json wire form of one diagnostic.
type jsonDiag struct {
	File       string `json:"file"`
	Line       int    `json:"line"`
	Col        int    `json:"col"`
	Analyzer   string `json:"analyzer"`
	Message    string `json:"message"`
	Suppressed bool   `json:"suppressed"`
}

func main() {
	jsonOut := flag.Bool("json", false, "emit one JSON diagnostic per line on stdout and a per-analyzer summary on stderr")
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	root, module, err := moduleRoot()
	if err != nil {
		fatal(err)
	}
	dirs, err := expand(root, patterns)
	if err != nil {
		fatal(err)
	}

	loader := analysis.NewLoader([]analysis.Root{{Prefix: module, Dir: root}})
	runner := analysis.NewRunner(analyzers, loader.Fset)
	enc := json.NewEncoder(os.Stdout)
	found := false
	for _, dir := range dirs {
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			fatal(err)
		}
		importPath := module
		if rel != "." {
			importPath = module + "/" + filepath.ToSlash(rel)
		}
		loaded, err := loader.LoadDir(dir, importPath, true)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", importPath, err))
		}
		for _, unit := range loaded {
			diags, err := runner.Check(unit)
			if err != nil {
				fatal(fmt.Errorf("%s: %w", unit.Path, err))
			}
			for _, d := range diags {
				pos := loader.Fset.Position(d.Pos)
				file := pos.Filename
				if r, err := filepath.Rel(root, file); err == nil && !strings.HasPrefix(r, "..") {
					file = r
				}
				if *jsonOut {
					if err := enc.Encode(jsonDiag{
						File: file, Line: pos.Line, Col: pos.Column,
						Analyzer: d.Analyzer, Message: d.Message, Suppressed: d.Suppressed,
					}); err != nil {
						fatal(err)
					}
				} else if !d.Suppressed {
					fmt.Printf("%s:%d:%d: %s (%s)\n", file, pos.Line, pos.Column, d.Message, d.Analyzer)
				}
				if !d.Suppressed {
					found = true
				}
			}
		}
	}
	if *jsonOut {
		summarize(runner)
	}
	if found {
		os.Exit(1)
	}
}

// summarize prints the per-analyzer finding/timing table on stderr.
func summarize(runner *analysis.Runner) {
	names := make([]string, 0, len(runner.Stats))
	for name := range runner.Stats {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "%-12s %9s %11s %10s\n", "analyzer", "findings", "suppressed", "elapsed")
	for _, name := range names {
		s := runner.Stats[name]
		fmt.Fprintf(os.Stderr, "%-12s %9d %11d %10s\n", name, s.Findings, s.Suppressed, s.Elapsed.Round(10*time.Microsecond))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "embracevet:", err)
	os.Exit(2)
}

// moduleRoot finds the enclosing go.mod from the working directory and
// returns its directory and module path.
func moduleRoot() (dir, module string, err error) {
	dir, err = os.Getwd()
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("%s/go.mod: no module line", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("no go.mod found above working directory")
		}
		dir = parent
	}
}

// expand resolves ./pkg and ./... style patterns to package directories,
// skipping testdata fixtures, vendored code, and dot-directories.
func expand(root string, patterns []string) ([]string, error) {
	set := map[string]bool{}
	for _, pat := range patterns {
		recursive := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			recursive = true
			pat = rest
			if pat == "." || pat == "" {
				pat = "."
			}
		}
		base := filepath.Join(root, filepath.FromSlash(strings.TrimPrefix(pat, "./")))
		if !recursive {
			if hasGoFiles(base) {
				set[base] = true
			}
			continue
		}
		err := filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != base && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if hasGoFiles(path) {
				set[path] = true
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	dirs := make([]string, 0, len(set))
	for d := range set {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)
	return dirs, nil
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			return true
		}
	}
	return false
}
