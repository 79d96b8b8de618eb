package lagraph

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestKernelSurface keeps the delegating wrappers from growing back: the
// package exports one function per (algorithm, tier), every one of them
// takes ctx first, and the set is the one the README documents.
func TestKernelSurface(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var kernels []string
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range exportedNames(file) {
			if strings.HasSuffix(name, "Ctx") {
				t.Errorf("exported name %s ends in Ctx: ctx is the first parameter of the only signature", name)
			}
		}
		// A kernel is an exported function that takes a *Graph[…].
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv != nil || !fn.Name.IsExported() {
				continue
			}
			params := fn.Type.Params.List
			takesGraph := false
			for _, p := range params {
				takesGraph = takesGraph || isGraphPointer(p.Type)
			}
			if !takesGraph {
				continue
			}
			kernels = append(kernels, fn.Name.Name)
			// BFSStep is a single step with no loop to cancel.
			if fn.Name.Name != "BFSStep" && !isSelector(params[0].Type, "context", "Context") {
				t.Errorf("%s takes a *Graph but not context.Context first", fn.Name.Name)
			}
		}
	}
	sort.Strings(kernels)

	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, found := strings.Cut(string(readme), "<!-- KERNEL SURFACE: BEGIN")
	table, _, foundEnd := strings.Cut(table, "<!-- KERNEL SURFACE: END")
	if !found || !foundEnd {
		t.Fatal("README.md has no KERNEL SURFACE table")
	}
	var documented []string
	for _, m := range regexp.MustCompile("`([A-Za-z]+)\\(").FindAllStringSubmatch(table, -1) {
		documented = append(documented, m[1])
	}
	sort.Strings(documented)
	if got, want := strings.Join(kernels, " "), strings.Join(documented, " "); got != want {
		t.Errorf("exported kernels differ from the README table\n package: %s\n README:  %s", got, want)
	}
}

// TestRetiredLibrarySurface keeps the retired experimental tier and the
// utilities nothing called from coming back: no Go package lives under
// internal/lagraph, and package lagraph exports none of the retired names.
// A new algorithm enters through algo.Register with a golden file instead.
func TestRetiredLibrarySurface(t *testing.T) {
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && filepath.Dir(path) != "." && strings.HasSuffix(path, ".go") {
			t.Errorf("%s: internal/lagraph holds no sub-packages", path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	retired := map[string]bool{"ErrInvalid": true, "Try": true, "Catch": true,
		"Sort1": true, "Sort2": true, "Sort3": true, "TypeName": true}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range exportedNames(file) {
			if retired[name] {
				t.Errorf("%s exports retired name %s", path, name)
			}
		}
	}
}

// exportedNames lists the exported functions, methods, types, constants
// and variables a file declares.
func exportedNames(file *ast.File) []string {
	var names []string
	add := func(id *ast.Ident) {
		if id.IsExported() {
			names = append(names, id.Name)
		}
	}
	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			add(d.Name)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch sp := spec.(type) {
				case *ast.TypeSpec:
					add(sp.Name)
				case *ast.ValueSpec:
					for _, id := range sp.Names {
						add(id)
					}
				}
			}
		}
	}
	return names
}

// isGraphPointer matches the parameter type *Graph[…].
func isGraphPointer(e ast.Expr) bool {
	star, ok := e.(*ast.StarExpr)
	if !ok {
		return false
	}
	index, ok := star.X.(*ast.IndexExpr)
	if !ok {
		return false
	}
	id, ok := index.X.(*ast.Ident)
	return ok && id.Name == "Graph"
}

// isSelector matches the qualified identifier pkg.name.
func isSelector(e ast.Expr, pkg, name string) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && id.Name == pkg && sel.Sel.Name == name
}
