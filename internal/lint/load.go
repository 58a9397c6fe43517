package lint

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

// Package is one typechecked module package ready for analysis.
type Package struct {
	Path  string // import path
	Dir   string // absolute directory
	Fset  *token.FileSet
	Files []*ast.File // non-test files, with comments
	Types *types.Package
	Info  *types.Info
}

// Loader typechecks packages of one module. Standard-library imports
// are resolved through the stdlib source importer (compiled from
// $GOROOT/src, so no export data or network is needed); module-internal
// imports are resolved recursively from the module tree itself.
type Loader struct {
	root    string // absolute module root (directory holding go.mod)
	modPath string
	fset    *token.FileSet
	std     types.ImporterFrom
	pkgs    map[string]*Package // memoized by import path
	loading map[string]bool     // import-cycle guard
}

// NewLoader prepares a loader for the module rooted at dir (the
// directory containing go.mod).
func NewLoader(dir string) (*Loader, error) {
	root, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	std, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("source importer does not implement types.ImporterFrom")
	}
	return &Loader{
		root:    root,
		modPath: modPath,
		fset:    fset,
		std:     std,
		pkgs:    map[string]*Package{},
		loading: map[string]bool{},
	}, nil
}

// ModulePath returns the module path declared in go.mod.
func (l *Loader) ModulePath() string { return l.modPath }

// LoadModule discovers and typechecks every package under the module
// root, skipping testdata, vendor, hidden and underscore-prefixed
// directories, and nested modules (directories below the root with
// their own go.mod). Test files are not analyzed. The returned slice
// is sorted by import path.
func (l *Loader) LoadModule() ([]*Package, error) {
	var dirs []string
	err := filepath.WalkDir(l.root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if path == l.root {
			dirs = append(dirs, path)
			return nil
		}
		name := d.Name()
		if strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor" {
			return filepath.SkipDir
		}
		// A directory with its own go.mod is a nested module, not part
		// of this one.
		if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
			return filepath.SkipDir
		}
		dirs = append(dirs, path)
		return nil
	})
	if err != nil {
		return nil, err
	}

	var pkgs []*Package
	for _, dir := range dirs {
		bp, err := build.Default.ImportDir(dir, 0)
		if err != nil {
			if _, nogo := err.(*build.NoGoError); nogo {
				continue
			}
			return nil, fmt.Errorf("%s: %w", dir, err)
		}
		if len(bp.GoFiles) == 0 {
			continue
		}
		ipath, err := l.importPathFor(dir)
		if err != nil {
			return nil, err
		}
		pkg, err := l.load(ipath)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// LoadDir typechecks the single package in dir under the synthetic
// import path ipath. Used by the fixture tests, whose packages live in
// testdata and therefore are invisible to LoadModule.
func (l *Loader) LoadDir(dir, ipath string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	return l.check(ipath, abs)
}

func (l *Loader) importPathFor(dir string) (string, error) {
	rel, err := filepath.Rel(l.root, dir)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return l.modPath, nil
	}
	return l.modPath + "/" + filepath.ToSlash(rel), nil
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.root, 0)
}

// ImportFrom implements types.ImporterFrom, routing module-internal
// paths to the module loader and everything else to the stdlib source
// importer.
func (l *Loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.ImportFrom(path, dir, mode)
}

func (l *Loader) load(ipath string) (*Package, error) {
	if pkg, ok := l.pkgs[ipath]; ok {
		return pkg, nil
	}
	if l.loading[ipath] {
		return nil, fmt.Errorf("import cycle through %s", ipath)
	}
	rel := strings.TrimPrefix(strings.TrimPrefix(ipath, l.modPath), "/")
	dir := filepath.Join(l.root, filepath.FromSlash(rel))
	pkg, err := l.check(ipath, dir)
	if err != nil {
		return nil, err
	}
	l.pkgs[ipath] = pkg
	return pkg, nil
}

func (l *Loader) check(ipath, dir string) (*Package, error) {
	l.loading[ipath] = true
	defer delete(l.loading, ipath)

	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", ipath, err)
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", ipath, err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(ipath, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %w", ipath, err)
	}
	return &Package{
		Path:  ipath,
		Dir:   dir,
		Fset:  l.fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}, nil
}

// FindModuleRoot walks upward from dir until it finds a go.mod.
func FindModuleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(abs, "go.mod")); err == nil {
			return abs, nil
		}
		parent := filepath.Dir(abs)
		if parent == abs {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		abs = parent
	}
}

func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("%s: no module directive", gomod)
}
