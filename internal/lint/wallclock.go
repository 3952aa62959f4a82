package lint

import (
	"go/ast"
	"go/types"
)

// wallclockFuncs are the package-time functions that read or wait on the
// host's clock. Duration arithmetic and unit constants are fine; these are
// not.
var wallclockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// checkWallclock flags calls into the host clock. Simulated code must use
// the virtual clock (sim.Env.Now, Task.Sleep); host-side code annotates
// its use explicitly.
func checkWallclock(pkg *pkgInfo) []Finding {
	var out []Finding
	for _, f := range pkg.files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj, ok := pkg.info.Uses[sel.Sel].(*types.Func)
			if !ok || obj.Pkg() == nil || obj.Pkg().Path() != "time" {
				return true
			}
			if wallclockFuncs[obj.Name()] {
				out = append(out, Finding{
					Pos:   pkg.pos(sel.Pos()),
					Check: "wallclock",
					Msg: "call to time." + obj.Name() +
						" reads the host clock — simulated code must use the virtual clock (sim.Env.Now, Task.Sleep)",
				})
			}
			return true
		})
	}
	return out
}
