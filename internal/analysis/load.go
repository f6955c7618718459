package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// This file is the driver half of the framework: package discovery,
// parsing and type checking without golang.org/x/tools/go/packages. The
// loader resolves three kinds of import paths, in order:
//
//  1. fixture roots (analysistest's testdata/src GOPATH-style layout),
//  2. the enclosing module (path rewritten against the go.mod directory),
//  3. the standard library, through go/importer's source importer —
//     which works offline from GOROOT/src, the property this repository's
//     network-free build environment requires.
//
// Type errors are collected, not fatal: a pass still sees the partial
// types.Info, and the caller decides whether broken packages fail the run.

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Path  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// Imports maps import paths to the fully loaded (syntax-carrying)
	// dependency packages — fixture and in-module deps only; stdlib
	// imports resolve through go/importer and carry no syntax. Program
	// construction (callgraph.go) follows these edges so interprocedural
	// passes can walk into dependency bodies.
	Imports map[string]*Package
	// TypeErrors holds the (non-fatal) type-checker complaints.
	TypeErrors []error
}

// LoadConfig controls package discovery and import resolution.
type LoadConfig struct {
	// Dir is the directory patterns are resolved against (default ".").
	Dir string
	// Tests includes in-package _test.go files in the loaded syntax.
	// External test packages (package foo_test) are not loaded.
	Tests bool
	// SrcRoot, when set, resolves import paths GOPATH-style against
	// SrcRoot/<path> before consulting the module — the analysistest
	// fixture layout.
	SrcRoot string
}

type loader struct {
	cfg  LoadConfig
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*types.Package
	// full caches the complete (syntax-carrying) packages by import path.
	// Every package is parsed and type-checked exactly once per Load, no
	// matter how many times it is reached as a root or a dependency — the
	// single-instance property that gives *types.Func objects program-wide
	// identity, which the call graph (callgraph.go) depends on.
	full    map[string]*Package
	loading map[string]bool
	// roots marks the directories named by the Load patterns; only these
	// may include _test.go files (when cfg.Tests), and only when they are
	// first reached through Load itself rather than an import edge.
	roots     map[string]bool
	moduleDir string
	module    string
}

// Load expands patterns ("./...", "./internal/mpi", an import path under
// SrcRoot) into packages, parses and type-checks each, and returns them
// sorted by import path.
func Load(cfg LoadConfig, patterns ...string) ([]*Package, error) {
	if cfg.Dir == "" {
		cfg.Dir = "."
	}
	dir, err := filepath.Abs(cfg.Dir)
	if err != nil {
		return nil, err
	}
	cfg.Dir = dir
	l := &loader{
		cfg:     cfg,
		fset:    token.NewFileSet(),
		pkgs:    map[string]*types.Package{},
		full:    map[string]*Package{},
		loading: map[string]bool{},
		roots:   map[string]bool{},
	}
	l.std = importer.ForCompiler(l.fset, "source", nil)
	l.moduleDir, l.module = findModule(cfg.Dir)

	dirs, err := l.expand(patterns)
	if err != nil {
		return nil, err
	}
	for _, d := range dirs {
		l.roots[d] = true
	}
	var out []*Package
	for _, d := range dirs {
		p, err := l.loadDir(d, true)
		if err != nil {
			if isNoGo(err) {
				continue
			}
			return nil, fmt.Errorf("%s: %w", d, err)
		}
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// findModule walks upward from dir to the enclosing go.mod and returns its
// directory and module path ("", "" when not inside a module).
func findModule(dir string) (string, string) {
	for d := dir; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest)
				}
			}
			return d, ""
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", ""
		}
		d = parent
	}
}

// expand turns the command-line patterns into package directories.
func (l *loader) expand(patterns []string) ([]string, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	seen := map[string]bool{}
	var dirs []string
	add := func(d string) {
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			recursive = true
			pat = rest
			if pat == "" || pat == "." {
				pat = "."
			}
		}
		root := pat
		if !filepath.IsAbs(root) {
			root = filepath.Join(l.cfg.Dir, root)
		}
		if fi, err := os.Stat(root); err != nil || !fi.IsDir() {
			return nil, fmt.Errorf("analysis: pattern %q does not name a directory", pat)
		}
		if !recursive {
			add(root)
			continue
		}
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != root && (name == "testdata" || name == "vendor" || name == "out" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			add(path)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	// Keep only directories that actually hold Go files.
	var out []string
	for _, d := range dirs {
		if _, err := build.ImportDir(d, 0); err != nil {
			if isNoGo(err) {
				continue
			}
			return nil, fmt.Errorf("%s: %w", d, err)
		}
		out = append(out, d)
	}
	return out, nil
}

func isNoGo(err error) bool {
	var ng *build.NoGoError
	return errAs(err, &ng)
}

// errAs is errors.As without importing errors (keeps the import block tidy
// for the one use).
func errAs(err error, target *(*build.NoGoError)) bool {
	for err != nil {
		if ng, ok := err.(*build.NoGoError); ok {
			*target = ng
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// pathFor derives the import path of a package directory.
func (l *loader) pathFor(dir string) string {
	if l.cfg.SrcRoot != "" {
		if rel, err := filepath.Rel(l.cfg.SrcRoot, dir); err == nil && !strings.HasPrefix(rel, "..") {
			return filepath.ToSlash(rel)
		}
	}
	if l.moduleDir != "" {
		if rel, err := filepath.Rel(l.moduleDir, dir); err == nil && !strings.HasPrefix(rel, "..") {
			if rel == "." {
				return l.module
			}
			return l.module + "/" + filepath.ToSlash(rel)
		}
	}
	return filepath.ToSlash(dir)
}

// dirFor resolves an import path to a source directory (fixtures first,
// then the module); ok is false for everything else (stdlib).
func (l *loader) dirFor(path string) (string, bool) {
	if l.cfg.SrcRoot != "" {
		d := filepath.Join(l.cfg.SrcRoot, filepath.FromSlash(path))
		if fi, err := os.Stat(d); err == nil && fi.IsDir() {
			return d, true
		}
	}
	if l.module != "" {
		if path == l.module {
			return l.moduleDir, true
		}
		if rest, ok := strings.CutPrefix(path, l.module+"/"); ok {
			return filepath.Join(l.moduleDir, filepath.FromSlash(rest)), true
		}
	}
	return "", false
}

// Import implements types.Importer for the dependency graph.
func (l *loader) Import(path string) (*types.Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if dir, ok := l.dirFor(path); ok {
		p, err := l.loadDir(dir, false)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	p, err := l.std.Import(path)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	return p, nil
}

// loadDir parses and type-checks one package directory. Dependency loads
// (root = false) exclude test files regardless of cfg.Tests. A package is
// loaded at most once per Load: repeated visits — a dependency that is also
// a root pattern, or a root imported by an earlier root — return the cached
// instance, so type objects keep their identity across the whole program.
func (l *loader) loadDir(dir string, root bool) (*Package, error) {
	path := l.pathFor(dir)
	if p, ok := l.full[path]; ok {
		return p, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("analysis: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	names := append([]string(nil), bp.GoFiles...)
	if root && l.roots[dir] && l.cfg.Tests {
		names = append(names, bp.TestGoFiles...)
	}
	sort.Strings(names)
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}

	pkg := &Package{
		Path: path,
		Dir:  dir,
		Fset: l.fset,
		Info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		},
		Files: files,
	}
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	tpkg, err := conf.Check(path, l.fset, files, pkg.Info)
	if tpkg == nil {
		return nil, err
	}
	pkg.Types = tpkg
	l.pkgs[path] = tpkg
	l.full[path] = pkg
	// Attach the syntax-carrying dependencies (type checking through
	// l.Import has already loaded them into the cache).
	imports := append(append([]string(nil), bp.Imports...), bp.TestImports...)
	for _, imp := range imports {
		if dep, ok := l.full[imp]; ok && dep != pkg {
			if pkg.Imports == nil {
				pkg.Imports = map[string]*Package{}
			}
			pkg.Imports[imp] = dep
		}
	}
	return pkg, nil
}

// Run executes the analyzers over the packages and returns the findings in
// a deterministic order — sorted by file, line, column, pass and message —
// that is independent of the order pkgs were passed in or loaded.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Finding, error) {
	var out []Finding
	var program *Program
	for _, a := range analyzers {
		if a.RunProgram != nil && program == nil && len(pkgs) > 0 {
			program = NewProgram(pkgs)
		}
	}
	// Per-package passes run over the packages in path order regardless of
	// the caller's slice order.
	sorted := append([]*Package(nil), pkgs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Path < sorted[j].Path })
	for _, a := range analyzers {
		if a.RunProgram != nil {
			if program == nil {
				continue
			}
			pp := &ProgramPass{Analyzer: a, Program: program}
			pp.Report = func(d Diagnostic) {
				out = append(out, Finding{
					Analyzer: a.Name,
					Pos:      program.Fset.Position(d.Pos),
					Message:  d.Message,
				})
			}
			if err := a.RunProgram(pp); err != nil {
				return out, fmt.Errorf("%s: %w", a.Name, err)
			}
			continue
		}
		for _, pkg := range sorted {
			pkg := pkg
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
			}
			pass.Report = func(d Diagnostic) {
				out = append(out, Finding{
					Analyzer: a.Name,
					Pos:      pkg.Fset.Position(d.Pos),
					Message:  d.Message,
				})
			}
			if err := a.Run(pass); err != nil {
				return out, fmt.Errorf("%s on %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		pi, pj := out[i].Pos, out[j].Pos
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		if out[i].Analyzer != out[j].Analyzer {
			return out[i].Analyzer < out[j].Analyzer
		}
		return out[i].Message < out[j].Message
	})
	return out, nil
}

// Finding is one rendered diagnostic.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String renders the finding the way go vet does, with the pass appended.
func (f Finding) String() string {
	return fmt.Sprintf("%s: %s (%s)", f.Pos, f.Message, f.Analyzer)
}
