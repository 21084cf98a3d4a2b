// Regrowth gate for unread API: an exported function or method that no
// Go file in the repository names is code nothing runs. The check is by
// name only — a method counts as read when any identifier anywhere
// (tests and the benchmark module included) spells its name — so it
// needs no type information and no allowlist; it catches the function
// whose name is unique and unused, which is how dead API accumulates.
package padico

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

func TestEveryExportHasAReader(t *testing.T) {
	fset := token.NewFileSet()
	declared := map[string][]string{} // name -> where it is declared
	read := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
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
		decl := map[*ast.Ident]bool{}
		if strings.HasPrefix(filepath.ToSlash(path), "internal/") && !strings.HasSuffix(path, "_test.go") {
			for _, dd := range f.Decls {
				if fd, ok := dd.(*ast.FuncDecl); ok && fd.Name.IsExported() {
					decl[fd.Name] = true
					declared[fd.Name.Name] = append(declared[fd.Name.Name], fset.Position(fd.Pos()).String()+": "+fd.Name.Name)
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !decl[id] {
				read[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var unread []string
	for name, at := range declared {
		if !read[name] {
			unread = append(unread, at...)
		}
	}
	sort.Strings(unread)
	for _, at := range unread {
		t.Errorf("%s is named by no Go file in the repository: delete it or give it a reader", at)
	}
}
