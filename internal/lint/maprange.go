package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// checkMapRange flags `for range` statements over maps whose iteration
// order leaks into something order-sensitive: formatted output, a slice
// the function returns, instrument registration, or simulated activity
// (any call that takes a *sim.Task or schedules on the kernel). Go
// randomizes map iteration order per run, so each of those turns into
// run-to-run nondeterminism. The fix is always the same: collect the keys,
// sort them, iterate the slice — and a loop that only collects keys into a
// slice that is sorted afterwards is recognized as exactly that idiom and
// not flagged.
func checkMapRange(pkg *pkgInfo, cfg *Config) []Finding {
	var out []Finding
	for _, f := range pkg.files {
		v := &mrVisitor{pkg: pkg, cfg: cfg, out: &out}
		ast.Walk(v, f)
	}
	return out
}

// mrVisitor walks a file keeping track of the innermost enclosing function
// so a range statement can be judged against that function's returns and
// later sort calls.
type mrVisitor struct {
	pkg *pkgInfo
	cfg *Config
	out *[]Finding
	fn  ast.Node // enclosing *ast.FuncDecl or *ast.FuncLit, or nil
}

func (v *mrVisitor) Visit(n ast.Node) ast.Visitor {
	switch n := n.(type) {
	case *ast.FuncDecl, *ast.FuncLit:
		return &mrVisitor{pkg: v.pkg, cfg: v.cfg, out: v.out, fn: n}
	case *ast.RangeStmt:
		v.checkRange(n)
	}
	return v
}

func (v *mrVisitor) checkRange(rng *ast.RangeStmt) {
	tv, ok := v.pkg.info.Types[rng.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	info := v.pkg.info
	var sinkMsg string
	var appends []types.Object
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if sinkMsg != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if name, ok := simSchedCallee(info, n, v.cfg.SimPath); ok {
				sinkMsg = "schedules simulated activity (" + name + ") in map iteration order"
			} else if passesSimTask(info, n, v.cfg.SimPath) {
				sinkMsg = "drives simulated activity (a *sim.Task call) in map iteration order"
			} else if name, ok := outputCallee(info, n); ok {
				sinkMsg = "writes output (" + name + ") in map iteration order"
			} else if name, ok := registerCallee(info, n); ok {
				sinkMsg = "registers instruments (" + name + ") in map iteration order"
			}
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if call, ok := rhs.(*ast.CallExpr); ok && isBuiltinAppend(info, call) && i < len(n.Lhs) {
					if id, ok := n.Lhs[i].(*ast.Ident); ok {
						if obj := objectOf(info, id); obj != nil {
							appends = append(appends, obj)
						}
					}
				}
			}
		}
		return true
	})
	if sinkMsg == "" {
		for _, obj := range appends {
			if v.sortedAfter(obj, rng) {
				continue
			}
			if v.returned(obj) {
				sinkMsg = "appends to returned slice " + obj.Name() + " in map iteration order"
				break
			}
		}
	}
	if sinkMsg != "" {
		*v.out = append(*v.out, Finding{
			Pos:   v.pkg.pos(rng.Pos()),
			Check: "maprange",
			Msg:   "map iteration " + sinkMsg + " — collect and sort the keys first",
		})
	}
}

// sortedAfter reports whether obj is passed to a sorting call after the
// range statement within the enclosing function: the collect-then-sort
// idiom. Sorting calls are the sort and slices packages plus any function
// named Sort* (domain-specific orderings like optrace.SortLayers).
func (v *mrVisitor) sortedAfter(obj types.Object, rng *ast.RangeStmt) bool {
	if v.fn == nil {
		return false
	}
	found := false
	ast.Inspect(v.fn, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		f := calleeFunc(v.pkg.info, call)
		if f == nil {
			return true
		}
		stdSort := f.Pkg() != nil && (f.Pkg().Path() == "sort" || f.Pkg().Path() == "slices")
		if !stdSort && !strings.HasPrefix(f.Name(), "Sort") {
			return true
		}
		for _, arg := range call.Args {
			if id, ok := ast.Unparen(arg).(*ast.Ident); ok && objectOf(v.pkg.info, id) == obj {
				found = true
			}
		}
		return true
	})
	return found
}

// returned reports whether obj is a named result of the enclosing function
// or appears in one of its return statements.
func (v *mrVisitor) returned(obj types.Object) bool {
	if v.fn == nil {
		return false
	}
	var ftype *ast.FuncType
	var body *ast.BlockStmt
	switch fn := v.fn.(type) {
	case *ast.FuncDecl:
		ftype, body = fn.Type, fn.Body
	case *ast.FuncLit:
		ftype, body = fn.Type, fn.Body
	}
	if ftype != nil && ftype.Results != nil {
		for _, field := range ftype.Results.List {
			for _, name := range field.Names {
				if objectOf(v.pkg.info, name) == obj {
					return true
				}
			}
		}
	}
	found := false
	if body != nil {
		ast.Inspect(body, func(n ast.Node) bool {
			ret, ok := n.(*ast.ReturnStmt)
			if !ok {
				return true
			}
			for _, res := range ret.Results {
				ast.Inspect(res, func(e ast.Node) bool {
					if id, ok := e.(*ast.Ident); ok && objectOf(v.pkg.info, id) == obj {
						found = true
					}
					return true
				})
			}
			return true
		})
	}
	return found
}

// outputFuncs are fmt's printing functions (Sprint variants build strings
// and are judged by where those strings go, not here).
var outputFuncs = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
}

// writerMethods are method names that conventionally emit ordered output.
var writerMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"Printf": true, "Print": true, "Println": true,
}

func outputCallee(info *types.Info, call *ast.CallExpr) (string, bool) {
	f := calleeFunc(info, call)
	if f == nil {
		return "", false
	}
	if f.Pkg() != nil && f.Pkg().Path() == "fmt" && outputFuncs[f.Name()] {
		return "fmt." + f.Name(), true
	}
	if f.Pkg() != nil && f.Pkg().Path() == "io" && f.Name() == "WriteString" {
		return "io.WriteString", true
	}
	if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil && writerMethods[f.Name()] {
		return funcKey(f), true
	}
	return "", false
}

func registerCallee(info *types.Info, call *ast.CallExpr) (string, bool) {
	f := calleeFunc(info, call)
	if f == nil {
		return "", false
	}
	if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil &&
		len(f.Name()) >= 8 && f.Name()[:8] == "Register" {
		return funcKey(f), true
	}
	return "", false
}

func isBuiltinAppend(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// objectOf resolves an identifier to its object via either Uses or Defs.
func objectOf(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Uses[id]; obj != nil {
		return obj
	}
	return info.Defs[id]
}
