package xmp_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestProductEventsAreTyped keeps one way onto the calendar in product
// code: every non-test Go file outside bench/ schedules typed events
// (ScheduleTarget, ScheduleTargetAt, Lane.Schedule), never a closure
// through Engine.Schedule or Engine.ScheduleAt. The check is syntactic: a
// call to a .Schedule or .ScheduleAt method with two arguments is the
// engine's closure form (a lane's Schedule takes three, a chaos spec's
// none), and so is such a method taken as a value without calling it.
// bench/ keeps its closure rigs; tests may schedule closures freely.
func TestProductEventsAreTyped(t *testing.T) {
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (p == "bench" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, 0)
		if err != nil {
			return err
		}
		for _, pos := range closureSchedules(f) {
			t.Errorf("%s: closure scheduled on the engine calendar; schedule a typed sim.Target instead", fset.Position(pos))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// closureSchedules returns where f calls, or takes the method value of,
// Engine.Schedule or Engine.ScheduleAt.
func closureSchedules(f *ast.File) []token.Pos {
	pkgs := map[string]bool{}
	for _, im := range f.Imports {
		p, _ := strconv.Unquote(im.Path.Value)
		name := path.Base(p)
		if im.Name != nil {
			name = im.Name.Name
		}
		pkgs[name] = true
	}
	isSchedule := func(e ast.Expr) (*ast.SelectorExpr, bool) {
		sel, ok := e.(*ast.SelectorExpr)
		return sel, ok && (sel.Sel.Name == "Schedule" || sel.Sel.Name == "ScheduleAt")
	}
	var found []token.Pos
	called := map[*ast.SelectorExpr]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if sel, ok := isSchedule(n.Fun); ok {
				called[sel] = true
				if len(n.Args) == 2 {
					found = append(found, sel.Sel.Pos())
				}
			}
		case *ast.SelectorExpr:
			// A package-qualified name (chaos.Schedule, the type) is not a
			// method value.
			if x, ok := n.X.(*ast.Ident); ok && pkgs[x.Name] {
				return true
			}
			if _, ok := isSchedule(n); ok && !called[n] {
				found = append(found, n.Sel.Pos())
			}
		}
		return true
	})
	return found
}
