package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// Package is one loaded, parsed and type-checked package.
type Package struct {
	PkgPath string
	Name    string
	Fset    *token.FileSet
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
}

// Loader parses and type-checks packages of the enclosing module
// using only the standard library: `go list -deps -export` for
// metadata and the compiler's export data of every dependency, and
// the gc importer to read a dependency's types from that data. Only
// the packages under analysis are type-checked from source; their
// imports, standard library included, are never re-checked. All
// packages loaded through one Loader share a FileSet and an importer
// cache.
type Loader struct {
	dir     string
	fset    *token.FileSet
	imp     types.Importer
	exports map[string]string // import path -> export data file
}

// NewLoader creates a Loader rooted at the module containing dir
// (empty means the current directory).
func NewLoader(dir string) *Loader {
	l := &Loader{dir: dir, fset: token.NewFileSet(), exports: map[string]string{}}
	l.imp = importer.ForCompiler(l.fset, "gc", l.lookup)
	return l
}

// lookup opens the export data `go list -export` reported for path.
func (l *Loader) lookup(path string) (io.ReadCloser, error) {
	file, ok := l.exports[path]
	if !ok {
		return nil, fmt.Errorf("analysis: no export data for %q", path)
	}
	return os.Open(file)
}

// listedPackage is the subset of `go list -json` output we consume.
type listedPackage struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	Export     string
	DepOnly    bool
	Standard   bool
	Error      *struct{ Err string }
}

// list runs `go list -deps -export` over patterns, records every
// listed package's export data, and returns the packages the
// patterns named (not the dependencies they pulled in).
func (l *Loader) list(patterns ...string) ([]listedPackage, error) {
	args := append([]string{"list", "-deps", "-export",
		"-json=ImportPath,Name,Dir,GoFiles,Export,DepOnly,Standard,Error", "--"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = l.dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	var named []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var lp listedPackage
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		if lp.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", lp.ImportPath, lp.Error.Err)
		}
		if lp.Export != "" {
			l.exports[lp.ImportPath] = lp.Export
		}
		if !lp.DepOnly {
			named = append(named, lp)
		}
	}
	return named, nil
}

// Load resolves patterns (e.g. "./...", "subtrav/internal/sim") to
// packages and type-checks each one. Test files are not loaded: the
// suite vets production code, and wall-clock or randomness use in
// tests is legitimate. Standard-library packages a pattern names are
// skipped.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	listed, err := l.list(patterns...)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, lp := range listed {
		if lp.Standard {
			continue
		}
		files := make([]string, len(lp.GoFiles))
		for i, f := range lp.GoFiles {
			files[i] = filepath.Join(lp.Dir, f)
		}
		pkg, err := l.check(lp.ImportPath, files)
		if err != nil {
			return nil, err
		}
		pkg.Name = lp.Name
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// LoadDir parses and type-checks every non-test .go file directly
// under dir as a single package named by importPath. Used for fixture
// packages, which live in testdata directories the go tool will not
// list; their imports are listed (and compiled, if the build cache
// lacks them) on demand.
func (l *Loader) LoadDir(importPath, dir string) (*Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		files = append(files, filepath.Join(dir, name))
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no .go files in %s", dir)
	}
	pkg, err := l.check(importPath, files)
	if err != nil {
		return nil, err
	}
	pkg.Name = pkg.Files[0].Name.Name
	return pkg, nil
}

func (l *Loader) check(importPath string, filenames []string) (*Package, error) {
	var files []*ast.File
	var imports []string
	for _, fn := range filenames {
		f, err := parser.ParseFile(l.fset, fn, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("analysis: parsing %s: %v", fn, err)
		}
		files = append(files, f)
		for _, spec := range f.Imports {
			if path, _ := strconv.Unquote(spec.Path.Value); path != "unsafe" && l.exports[path] == "" {
				imports = append(imports, path)
			}
		}
	}
	if len(imports) > 0 {
		if _, err := l.list(imports...); err != nil {
			return nil, err
		}
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	var typeErrs []error
	conf := types.Config{
		Importer: l.imp,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, _ := conf.Check(importPath, l.fset, files, info)
	if len(typeErrs) > 0 {
		msgs := make([]string, 0, len(typeErrs))
		for _, e := range typeErrs {
			msgs = append(msgs, e.Error())
		}
		return nil, fmt.Errorf("analysis: type-checking %s:\n\t%s", importPath, strings.Join(msgs, "\n\t"))
	}
	return &Package{
		PkgPath: importPath,
		Fset:    l.fset,
		Files:   files,
		Types:   tpkg,
		Info:    info,
	}, nil
}
