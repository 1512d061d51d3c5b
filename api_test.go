package privcluster

import (
	"go/ast"
	"go/parser"
	"go/scanner"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// apiKeep lists the exported internal/ names that no non-test Go file in
// the module calls, each with the reason it stays. An entry must stay
// true: TestInternalAPIHasCallers fails on an entry whose name gained a
// caller or no longer exists.
var apiKeep = map[string]string{
	"dp.ComposeAdvanced":               "planned per-query spend check: GoodCenter's d axis choices compose as one advanced-composition block",
	"dptest.Audit":                     "planned end-to-end privacy audits of GoodRadius and Dataset.FindCluster",
	"dptest.BinFloat":                  "event family for those audits of continuous releases",
	"recconcave.StepFn.IsQuasiConcave": "Lemma 4.6 oracle in internal/core/quality_test.go",
	"core.Params.DeltaLoss":            "Theorem 3.2's Δ, the bound the utility tests check",
	"transport.NewLoopbackNet":         "in-memory shard network for the tests of other packages",
	"vec.Frame.SetRow":                 "frame fixture setter for the tests of other packages",
	"transport.loopbackAddr.Network":   "implements net.Addr",
}

// TestInternalAPIHasCallers keeps the internal packages free of exported
// API that production never calls. It counts the IDENT tokens of every
// non-test Go file in the module (perfbench included, testdata excluded),
// so comments and strings do not count as callers, and fails on any
// exported declaration under internal/ whose name occurs once, at its
// declaration, unless apiKeep gives a reason.
//
// Known blind spot: names are matched as bare identifiers, so a dead
// method that shares its name with a live function, method or field
// anywhere in the module is not caught.
func TestInternalAPIHasCallers(t *testing.T) {
	counts := map[string]int{}
	var decls []apiDecl
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		countIdents(fset, path, src, counts)
		if strings.HasPrefix(filepath.ToSlash(path), "internal/") {
			f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			decls = append(decls, exportedDecls(f)...)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	declared := map[string]bool{}
	var dead []string
	for _, d := range decls {
		declared[d.key] = true
		if counts[d.name] <= 1 {
			if reason, ok := apiKeep[d.key]; ok {
				t.Logf("%s has no caller outside tests; kept: %s", d.key, reason)
			} else {
				dead = append(dead, d.key)
			}
		} else if _, ok := apiKeep[d.key]; ok {
			t.Errorf("%s has a caller now: drop it from apiKeep", d.key)
		}
	}
	for key := range apiKeep {
		if !declared[key] {
			t.Errorf("apiKeep lists %s, which no longer exists", key)
		}
	}
	sort.Strings(dead)
	for _, key := range dead {
		t.Errorf("%s has no caller outside tests: delete it, move it into a _test.go file, or give apiKeep a reason", key)
	}
}

// apiDecl is one exported declaration: its bare name and its qualified
// key (package.Name or package.Receiver.Name).
type apiDecl struct{ name, key string }

// countIdents adds the IDENT tokens of src to counts.
func countIdents(fset *token.FileSet, path string, src []byte, counts map[string]int) {
	var s scanner.Scanner
	s.Init(fset.AddFile(path, -1, len(src)), src, nil, 0)
	for {
		_, tok, lit := s.Scan()
		if tok == token.EOF {
			return
		}
		if tok == token.IDENT {
			counts[lit]++
		}
	}
}

// exportedDecls lists f's exported top-level functions, methods, types,
// constants and variables. Methods on unexported types count too.
func exportedDecls(f *ast.File) []apiDecl {
	pkg := f.Name.Name
	var out []apiDecl
	add := func(id *ast.Ident, qual string) {
		if id.IsExported() {
			out = append(out, apiDecl{id.Name, qual + id.Name})
		}
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			qual := pkg + "."
			if d.Recv != nil && len(d.Recv.List) > 0 {
				qual += recvName(d.Recv.List[0].Type) + "."
			}
			add(d.Name, qual)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					add(s.Name, pkg+".")
				case *ast.ValueSpec:
					for _, id := range s.Names {
						add(id, pkg+".")
					}
				}
			}
		}
	}
	return out
}

// recvName is the type name of a method receiver, without pointer or
// type parameters.
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}
