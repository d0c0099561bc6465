// Package lint holds repository-wide source checks. It has no
// production code: its one test type-checks every package of the
// repository from source.
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
	"testing"
)

// interfaceMethods are method names that code reaches through an
// interface value (error, fmt.Stringer, io.Reader, errors.Unwrap), so no
// call site names the concrete method.
var interfaceMethods = map[string]bool{"Error": true, "Unwrap": true, "String": true, "Read": true}

// allowed names, by types.Func.FullName, the exported functions that no
// production code calls but that stay exported, each with its reason.
var allowed = map[string]string{
	"mrcc/internal/fault.Set":   "arms an injection point for the -tags=fault suites",
	"mrcc/internal/fault.Hits":  "counts checkpoint polls for the -tags=fault suites",
	"mrcc/internal/fault.Reset": "disarms injection points between the -tags=fault suites",
	"mrcc/internal/conv.FaceValueScratch": "the face-sum oracle that conv's and core's suites " +
		"compare the level index's FaceSum against",
	"(mrcc/internal/ctree.Path).Compare": "the order of BetaCluster.Center, which the facade " +
		"re-exports; its callers and the equivalence suites compare β-cluster centers with it",
	"(*mrcc/internal/ctree.Tree).CellAt": "the by-path cell lookup through which the conv, core, " +
		"treeio and ctree suites' neighbor, golden and equality oracles read a tree",
	"(*mrcc/internal/ctree.Tree).WalkLevel": "the level walk with which those oracles enumerate a tree's cells",
	"(*mrcc/internal/ctree.Tree).N":         "the per-cell count those oracles read",
	"(*mrcc/internal/ctree.Tree).Used":      "the per-cell usedCell flag those oracles read",
}

// allowedPackages are packages whose exports only tests use, by design.
var allowedPackages = map[string]string{
	"mrcc/internal/baselines/testutil": "the baselines' shared test fixture",
}

// TestNoDeadExports fails when an exported function or method declared
// in a non-test file under internal/ has no use in any non-test file of
// the repository, perfbench/ included; .bench_build/ (whole parent
// checkouts) and testdata are skipped. Uses are resolved by go/types, so
// two methods of one name on different types are told apart. A method
// of a type the facade re-exports by alias is public API, and a method
// named in interfaceMethods is reached through an interface; both are
// exempt. Every other exception is named in allowed.
//
// The packages are checked under the fault build tag: it swaps
// internal/fault's inject_off.go for inject_on.go, the only tagged
// non-test files, so every exported declaration is seen.
func TestNoDeadExports(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	l := &loader{
		root: root,
		fset: token.NewFileSet(),
		std:  importer.Default(),
		pkgs: map[string]*loaded{},
		info: &types.Info{
			Defs: map[*ast.Ident]types.Object{},
			Uses: map[*ast.Ident]types.Object{},
		},
	}
	l.ctx = build.Default
	l.ctx.BuildTags = []string{"fault"}
	var internal []*loaded
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		p := l.load(importPath(rel))
		if p.err != nil {
			return fmt.Errorf("%s: %w", rel, p.err)
		}
		if p.types != nil && strings.HasPrefix(p.types.Path(), "mrcc/internal/") && allowedPackages[p.types.Path()] == "" {
			internal = append(internal, p)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// uses maps each function to the positions of its uses.
	uses := map[*types.Func][]token.Pos{}
	for id, obj := range l.info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			uses[fn.Origin()] = append(uses[fn.Origin()], id.Pos())
		}
	}
	public := map[*types.TypeName]bool{}
	for _, name := range l.pkgs["mrcc"].types.Scope().Names() {
		tn, ok := l.pkgs["mrcc"].types.Scope().Lookup(name).(*types.TypeName)
		if !ok || !tn.IsAlias() {
			continue
		}
		if named, ok := types.Unalias(tn.Type()).(*types.Named); ok {
			public[named.Obj()] = true
		}
	}

	var dead []string
	stale := map[string]bool{} // allowed names found, true when used after all
	for _, p := range internal {
		for _, f := range p.files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				fn := l.info.Defs[fd.Name].(*types.Func)
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
					if interfaceMethods[fn.Name()] || public[receiverName(recv.Type())] {
						continue
					}
				}
				name, used := fn.FullName(), usedOutside(uses[fn], fd)
				if allowed[name] != "" {
					stale[name] = used
					continue
				}
				if !used {
					dead = append(dead, l.fset.Position(fd.Pos()).String()+": "+name)
				}
			}
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("exported but used by no non-test file: %s", strings.TrimPrefix(d, root+string(filepath.Separator)))
	}
	for name := range allowed {
		if used, ok := stale[name]; !ok || used {
			t.Errorf("allowed names %s, which is gone or has a non-test use", name)
		}
	}
}

// usedOutside reports whether any use lies outside fd itself, so a
// recursive call does not keep a function alive.
func usedOutside(pos []token.Pos, fd *ast.FuncDecl) bool {
	for _, p := range pos {
		if p < fd.Pos() || p >= fd.End() {
			return true
		}
	}
	return false
}

// receiverName returns the named type a method's receiver denotes.
func receiverName(t types.Type) *types.TypeName {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := types.Unalias(t).(*types.Named); ok {
		return named.Origin().Obj()
	}
	return nil
}

// importPath maps a directory relative to the repository root to its
// import path. perfbench/ is its own module, mrcc/perfbench, so one
// rule covers both modules.
func importPath(rel string) string {
	if rel == "." {
		return "mrcc"
	}
	return "mrcc/" + filepath.ToSlash(rel)
}

// loader type-checks the repository's packages from their non-test
// files, importing the standard library from export data.
type loader struct {
	root string
	fset *token.FileSet
	ctx  build.Context
	std  types.Importer
	pkgs map[string]*loaded
	info *types.Info
}

// loaded is one checked package; files is empty for a directory that
// holds no non-test Go file.
type loaded struct {
	types *types.Package
	files []*ast.File
	err   error
}

func (l *loader) Import(path string) (*types.Package, error) {
	if path != "mrcc" && !strings.HasPrefix(path, "mrcc/") {
		return l.std.Import(path)
	}
	p := l.load(path)
	return p.types, p.err
}

// load parses and checks the package at path once.
func (l *loader) load(path string) *loaded {
	if p, ok := l.pkgs[path]; ok {
		return p
	}
	p := &loaded{}
	l.pkgs[path] = p
	dir := filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, "mrcc"), "/")))
	entries, err := os.ReadDir(dir)
	if err != nil {
		p.err = err
		return p
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		match, err := l.ctx.MatchFile(dir, name)
		if err != nil {
			p.err = err
			return p
		}
		if !match {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			p.err = err
			return p
		}
		p.files = append(p.files, f)
	}
	if len(p.files) == 0 {
		return p
	}
	conf := types.Config{Importer: l}
	p.types, p.err = conf.Check(path, l.fset, p.files, l.info)
	return p
}
