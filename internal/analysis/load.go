package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one typechecked analysis unit: a package's compiled files, or
// the package augmented with its in-package test files, or an external _test
// package. Analyzers see exactly one unit per Pass.
type Package struct {
	// Path is the unit's import path; external test units carry a "_test"
	// suffix.
	Path string
	// Dir is the directory the unit's files live in.
	Dir string
	// Files are the unit's parsed files, with comments.
	Files []*ast.File
	// Types and Info are the typechecking results.
	Types *types.Package
	Info  *types.Info
}

// Root maps an import-path prefix to the directory that holds its source,
// the way a GOPATH entry or a module root does. A Root with Prefix "" serves
// any path (used by analysistest's testdata/src trees).
type Root struct {
	Prefix string
	Dir    string
}

// Loader typechecks packages from source using only the standard library: a
// replacement for go/packages that resolves the repo's own import paths via
// Roots and everything else (the standard library, including its vendored
// dependencies) via go/build. Dependencies are typechecked with function
// bodies ignored; only the units requested through Load get full checking.
//
// A Loader caches dependency packages, so loading every package of the
// module shares one typechecked standard library.
type Loader struct {
	// Fset positions every file the loader touches.
	Fset *token.FileSet
	// Roots resolve non-stdlib import paths, first match wins.
	Roots []Root

	ctxt    build.Context
	deps    map[string]*types.Package
	loading map[string]bool
}

// NewLoader returns a loader resolving import paths through roots.
func NewLoader(roots []Root) *Loader {
	ctxt := build.Default
	// Cgo files would inject the pseudo-package "C"; with cgo off, go/build
	// selects the pure-Go fallbacks (e.g. the netgo resolver), which is all
	// source-level analysis needs.
	ctxt.CgoEnabled = false
	return &Loader{
		Fset:    token.NewFileSet(),
		Roots:   roots,
		ctxt:    ctxt,
		deps:    make(map[string]*types.Package),
		loading: make(map[string]bool),
	}
}

// rootDir returns the directory for path if a Root covers it.
func (l *Loader) rootDir(path string) (string, bool) {
	for _, r := range l.Roots {
		switch {
		case r.Prefix == "":
			dir := filepath.Join(r.Dir, filepath.FromSlash(path))
			if isDir(dir) {
				return dir, true
			}
		case path == r.Prefix:
			return r.Dir, true
		case strings.HasPrefix(path, r.Prefix+"/"):
			return filepath.Join(r.Dir, filepath.FromSlash(strings.TrimPrefix(path, r.Prefix+"/"))), true
		}
	}
	return "", false
}

func isDir(dir string) bool {
	fi, err := os.Stat(dir)
	return err == nil && fi.IsDir()
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

// ImportFrom implements types.ImporterFrom: it typechecks the dependency
// package at `path` (bodies ignored), resolving vendored stdlib imports
// relative to srcDir exactly as the go tool does.
func (l *Loader) ImportFrom(path, srcDir string, _ types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if pkg, ok := l.deps[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("import cycle through %q", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir, ok := l.rootDir(path)
	var files []string
	var resolved string // canonical path (vendored imports resolve to a longer one)
	if ok {
		bp, err := l.ctxt.ImportDir(dir, 0)
		if err != nil {
			return nil, fmt.Errorf("import %q: %w", path, err)
		}
		files, resolved = absolve(bp.Dir, bp.GoFiles), path
	} else {
		bp, err := l.ctxt.Import(path, srcDir, 0)
		if err != nil {
			return nil, fmt.Errorf("import %q from %q: %w", path, srcDir, err)
		}
		if pkg, ok := l.deps[bp.ImportPath]; ok {
			l.deps[path] = pkg
			return pkg, nil
		}
		files, resolved = absolve(bp.Dir, bp.GoFiles), bp.ImportPath
	}

	parsed, err := l.parse(files, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	conf := types.Config{
		Importer:         l,
		IgnoreFuncBodies: true,
		// The standard library legitimately uses compiler intrinsics and
		// build-tag tricks; soft errors in dependencies must not block
		// analysis of the unit under check.
		Error: func(error) {},
	}
	pkg, err := conf.Check(resolved, l.Fset, parsed, nil)
	if err != nil && pkg == nil {
		return nil, fmt.Errorf("typecheck %q: %w", path, err)
	}
	pkg.MarkComplete()
	l.deps[resolved] = pkg
	l.deps[path] = pkg
	return pkg, nil
}

// absolve joins names onto dir.
func absolve(dir string, names []string) []string {
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = filepath.Join(dir, n)
	}
	return out
}

func (l *Loader) parse(files []string, mode parser.Mode) ([]*ast.File, error) {
	sort.Strings(files)
	parsed := make([]*ast.File, 0, len(files))
	for _, f := range files {
		af, err := parser.ParseFile(l.Fset, f, nil, mode)
		if err != nil {
			return nil, err
		}
		parsed = append(parsed, af)
	}
	return parsed, nil
}

// LoadDir typechecks the package in dir as up to two full analysis units:
// the package itself (augmented with its in-package _test files when
// includeTests is set) and, when present and requested, the external _test
// package. Directories containing no buildable Go files yield no units and
// no error.
func (l *Loader) LoadDir(dir, importPath string, includeTests bool) ([]*Package, error) {
	bp, err := l.ctxt.ImportDir(dir, 0)
	if err != nil {
		if _, ok := err.(*build.NoGoError); ok {
			return nil, nil
		}
		return nil, fmt.Errorf("load %s: %w", dir, err)
	}
	var units []*Package
	main := absolve(bp.Dir, bp.GoFiles)
	if includeTests {
		main = append(main, absolve(bp.Dir, bp.TestGoFiles)...)
	}
	if len(main) > 0 {
		u, err := l.check(importPath, dir, main)
		if err != nil {
			return nil, err
		}
		units = append(units, u)
	}
	if includeTests && len(bp.XTestGoFiles) > 0 {
		xl := l
		if len(bp.TestGoFiles) > 0 {
			// External tests compile against the package with its in-package
			// test files (export_test.go hooks), and so does every repo
			// package they import: check those afresh, sharing the stdlib.
			xl = NewLoader(l.Roots)
			xl.Fset = l.Fset
			for p, dep := range l.deps {
				if _, repo := l.rootDir(p); !repo {
					xl.deps[p] = dep
				}
			}
			u, err := xl.check(importPath, dir, main)
			if err != nil {
				return nil, err
			}
			xl.deps[importPath] = u.Types
		}
		u, err := xl.check(importPath+"_test", dir, absolve(bp.Dir, bp.XTestGoFiles))
		if err != nil {
			return nil, err
		}
		units = append(units, u)
	}
	return units, nil
}

// check fully typechecks one unit.
func (l *Loader) check(importPath, dir string, files []string) (*Package, error) {
	parsed, err := l.parse(files, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	var firstErr error
	conf := types.Config{
		Importer: l,
		Error: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		},
	}
	pkg, _ := conf.Check(importPath, l.Fset, parsed, info)
	if firstErr != nil {
		return nil, fmt.Errorf("typecheck %s: %w", importPath, firstErr)
	}
	return &Package{Path: importPath, Dir: dir, Files: parsed, Types: pkg, Info: info}, nil
}
