package mrcc_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"mrcc"
)

// TestFacadeSurface pins the facade's exported top-level names, read
// from its non-test source files, and the exported methods of the two
// types it owns, Tree and Result: a change that grows or shrinks the
// public API has to edit these lists. Tree's layout stays private, so
// it exports no field.
func TestFacadeSurface(t *testing.T) {
	want := []string{
		"BetaCluster", "Cluster", "Config", "Dataset", "DatasetFromRows",
		"DefaultAlpha", "DefaultH", "Input", "LoadCSV", "LoadTree",
		"NewDataset", "NewTree", "Noise", "PanicError", "Phase",
		"PhaseStat", "PipelineError", "ResourceError",
		"Result", "Run", "RunDataset", "SaveTree", "SoftMemberships",
		"Stats", "Tree", "TreeFormatError",
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && d.Name.IsExported() {
					got = append(got, d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						if sp.Name.IsExported() {
							got = append(got, sp.Name.Name)
						}
					case *ast.ValueSpec:
						for _, n := range sp.Names {
							if n.IsExported() {
								got = append(got, n.Name)
							}
						}
					}
				}
			}
		}
	}
	sort.Strings(got)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("facade exports\n  %v\nwant\n  %v", got, want)
	}
	for typ, want := range map[reflect.Type][]string{
		reflect.TypeOf(&mrcc.Tree{}):   {"InsertBatch", "MemoryBytes", "Points"},
		reflect.TypeOf(&mrcc.Result{}): {"NumClusters"},
	} {
		var got []string
		for i := 0; i < typ.NumMethod(); i++ {
			got = append(got, typ.Method(i).Name)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v methods %v, want %v", typ, got, want)
		}
	}
	tree := reflect.TypeOf(mrcc.Tree{})
	for i := 0; i < tree.NumField(); i++ {
		if tree.Field(i).IsExported() {
			t.Errorf("mrcc.Tree exports field %s", tree.Field(i).Name)
		}
	}
}
