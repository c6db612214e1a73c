package repliflow

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

// keptUncalledExports names the exported functions and methods of internal
// packages that no non-test file calls but that stay, each for the reason
// beside it. Every other exported function under internal/ must have a
// production caller.
var keptUncalledExports = map[string]string{
	// Oracles and counters that tests of other packages call.
	"core.FrontIsMonotone":                  "front check of the root, engine and core tests",
	"exhaustive.ForkPareto":                 "enumerated fork front for core's Pareto tests",
	"exhaustive.PipelinePareto":             "exact pipeline front for core's Pareto tests",
	"exhaustive.ForkPeriodUnderLatency":     "exact fork optimum for the forkalgo tests",
	"exhaustive.ForkJoinPeriod":             "exact fork-join optimum for the forkalgo, heuristics and anytime tests",
	"exhaustive.ForkJoinLatencyUnderPeriod": "exact fork-join optimum for the forkalgo tests",
	"exhaustive.ForkJoinPeriodUnderLatency": "exact fork-join optimum for the forkalgo tests",
	"exhaustive.PipelinePeriodUnderLatency": "exact pipeline optimum for the pipealgo and core tests",
	"exhaustive.PipelineDPSolves":           "DP solve counter of the engine tests and kernel benchmarks",
	"spdecomp.MappingsCosted":               "SP search counter of the kernel benchmarks",
	"platform.RandomClasses":                "speed-class platform generator of the exhaustive, spdecomp and algorithm tests",
	"nph.Theorem13Period":                   "Theorem 13 reduction timed by the root benchmarks",
	"engine.Engine.Reset":                   "clears the cache between ops of the server's Pareto stream benchmark",
	// API idioms.
	"core.kindError.Unwrap":    "errors.Is and errors.As reach the wrapped error through it",
	"workflow.SPBuilder.Step":  "the SP builder's chained step call",
	"workflow.SPBuilder.Build": "the SP builder's terminal call",
}

// TestInternalExportsHaveProductionCallers fails for every exported
// function or method of an internal package whose name no non-test file of
// the module uses, outside keptUncalledExports. A function only tests call
// belongs in a _test.go file.
func TestInternalExportsHaveProductionCallers(t *testing.T) {
	uncalled, err := uncalledInternalExports(".")
	if err != nil {
		t.Fatal(err)
	}
	found := make(map[string]bool, len(uncalled))
	for _, name := range uncalled {
		found[name] = true
		if _, ok := keptUncalledExports[name]; !ok {
			t.Errorf("%s has no caller outside _test.go files: delete it, move it into a test file, or name it in keptUncalledExports with its reason", name)
		}
	}
	for name := range keptUncalledExports {
		if !found[name] {
			t.Errorf("keptUncalledExports names %s, which is gone or now has a production caller: drop it from the list", name)
		}
	}
}

// uncalledInternalExports scans the non-test files of the root package and
// of cmd, examples and internal. It returns every exported function and
// method declared under internal/ whose name appears in no non-test file
// other than at a declaration, as "pkg.Func" or "pkg.Type.Method" with pkg
// the directory below internal/. The scan goes by name, not by type: a
// method counts as called when any call site uses its name.
func uncalledInternalExports(root string) ([]string, error) {
	type export struct{ key, name string }
	var exports []export
	used := map[string]bool{}
	fset := token.NewFileSet()
	scan := func(path string, internal bool) error {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		declared := map[*ast.Ident]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				declared[n.Name] = true
				if internal && n.Name.IsExported() {
					pkg, _ := filepath.Rel(filepath.Join(root, "internal"), filepath.Dir(path))
					key := filepath.ToSlash(pkg) + "."
					if n.Recv != nil {
						key += receiverName(n.Recv.List[0].Type) + "."
					}
					exports = append(exports, export{key + n.Name.Name, n.Name.Name})
				}
			case *ast.Field:
				for _, id := range n.Names {
					declared[id] = true
				}
			case *ast.TypeSpec:
				declared[n.Name] = true
			case *ast.ValueSpec:
				for _, id := range n.Names {
					declared[id] = true
				}
			case *ast.Ident:
				if !declared[n] {
					used[n.Name] = true
				}
			}
			return true
		})
		return nil
	}

	rootFiles, err := filepath.Glob(filepath.Join(root, "*.go"))
	if err != nil {
		return nil, err
	}
	for _, path := range rootFiles {
		if !strings.HasSuffix(path, "_test.go") {
			if err := scan(path, false); err != nil {
				return nil, err
			}
		}
	}
	for _, top := range []string{"cmd", "examples", "internal"} {
		err := filepath.WalkDir(filepath.Join(root, top), func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if d.Name() == "testdata" {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			return scan(path, top == "internal")
		})
		if err != nil {
			return nil, err
		}
	}

	var out []string
	for _, e := range exports {
		if !used[e.name] {
			out = append(out, e.key)
		}
	}
	sort.Strings(out)
	return out, nil
}

// receiverName returns the type name of a method receiver, without its
// pointer or type parameters.
func receiverName(recv ast.Expr) string {
	for {
		switch r := recv.(type) {
		case *ast.StarExpr:
			recv = r.X
		case *ast.IndexExpr:
			recv = r.X
		case *ast.IndexListExpr:
			recv = r.X
		case *ast.Ident:
			return r.Name
		default:
			return ""
		}
	}
}
