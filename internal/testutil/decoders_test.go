package testutil

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestEveryDecoderIsFuzzed is the rule that every decoder of outside bytes
// has a fuzz target. It parses every Go file of the module: an exported
// package-level Read*, Decode*, Parse* or Unmarshal* function that takes a
// []byte or an io.Reader must be named in the body of some Fuzz* function
// of the module's tests. Methods are outside the rule: an UnmarshalJSON
// runs under its package's decoder, and that decoder is what gets named.
func TestEveryDecoderIsFuzzed(t *testing.T) {
	root := filepath.Join("..", "..")
	mod := modulePath(t, root)
	decoders := map[string]string{} // import path "." name -> position
	named := map[string]bool{}      // the same keys, as Fuzz* bodies name them
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := mod
		if rel, _ := filepath.Rel(root, filepath.Dir(path)); rel != "." {
			pkg += "/" + filepath.ToSlash(rel)
		}
		imports := fileImports(f)
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv != nil {
				continue
			}
			switch {
			case strings.HasSuffix(path, "_test.go") && strings.HasPrefix(fn.Name.Name, "Fuzz"):
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.SelectorExpr:
						if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
							named[imports[x.Name]+"."+n.Sel.Name] = true
						}
					case *ast.Ident:
						named[pkg+"."+n.Name] = true
					}
					return true
				})
			case !strings.HasSuffix(path, "_test.go") && isDecoder(fn, imports):
				decoders[pkg+"."+fn.Name.Name] = fset.Position(fn.Pos()).String()
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decoders) == 0 {
		t.Fatal("no decoder found: the walk missed the module")
	}
	for _, name := range slices.Sorted(maps.Keys(decoders)) {
		if !named[name] {
			t.Errorf("%s (%s) reads outside bytes and no Fuzz function names it", name, decoders[name])
		}
	}
}

// modulePath reads the module path from root's go.mod.
func modulePath(t *testing.T, root string) string {
	buf, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if mod, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(mod)
		}
	}
	t.Fatal("go.mod names no module")
	return ""
}

// fileImports maps each import's local name in f to its path.
func fileImports(f *ast.File) map[string]string {
	m := map[string]string{}
	for _, imp := range f.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		name := path[strings.LastIndex(path, "/")+1:]
		if imp.Name != nil {
			name = imp.Name.Name
		}
		m[name] = path
	}
	return m
}

// isDecoder reports whether fn is an exported Read*, Decode*, Parse* or
// Unmarshal* function with a []byte or io.Reader parameter.
func isDecoder(fn *ast.FuncDecl, imports map[string]string) bool {
	name := fn.Name.Name
	if !ast.IsExported(name) || !slices.ContainsFunc([]string{"Read", "Decode", "Parse", "Unmarshal"},
		func(p string) bool { return strings.HasPrefix(name, p) }) {
		return false
	}
	for _, p := range fn.Type.Params.List {
		switch ty := p.Type.(type) {
		case *ast.ArrayType:
			if elt, ok := ty.Elt.(*ast.Ident); ok && ty.Len == nil && elt.Name == "byte" {
				return true
			}
		case *ast.SelectorExpr:
			if x, ok := ty.X.(*ast.Ident); ok && imports[x.Name] == "io" && ty.Sel.Name == "Reader" {
				return true
			}
		}
	}
	return false
}
