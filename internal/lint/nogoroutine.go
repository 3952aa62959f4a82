package lint

import (
	"go/ast"
	"go/token"
	"strconv"
)

// checkNoGoroutine enforces single-threadedness everywhere except the
// host-side allowlist: the kernel dispatches one continuation at a time
// on the caller's goroutine, so go statements, native channels, and sync
// primitives in simulated code either deadlock, race, or — worst —
// silently reorder events between runs. Concurrency in simulated code is
// expressed with sim tasks (Env.StartTask) coordinating through sim.Event
// and sim.Resource. Packages that are genuinely host-side (worker pools,
// real daemons) are exempted as whole packages via Config.HostSide.
func checkNoGoroutine(pkg *pkgInfo, cfg *Config) []Finding {
	if cfg.hostSide(pkg.path) {
		return nil
	}
	var out []Finding
	flag := func(pos token.Pos, msg string) {
		out = append(out, Finding{Pos: pkg.pos(pos), Check: "nogoroutine", Msg: msg})
	}
	for _, f := range pkg.files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if path == "sync" || path == "sync/atomic" {
				flag(imp.Pos(), "import of "+path+" in a sim-side package — the kernel is single-threaded; locks hide ordering bugs")
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				flag(n.Pos(), "go statement in a sim-side package — start sim tasks (Env.StartTask) instead")
			case *ast.SendStmt:
				flag(n.Pos(), "native channel send in a sim-side package — use sim.Event/sim.Resource for virtual-time coordination")
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					flag(n.Pos(), "native channel receive in a sim-side package — use sim.Event/sim.Resource for virtual-time coordination")
				}
			case *ast.SelectStmt:
				flag(n.Pos(), "select statement in a sim-side package — use sim.Event/sim.Resource for virtual-time coordination")
			case *ast.ChanType:
				flag(n.Pos(), "native channel type in a sim-side package — use sim.Event/sim.Resource for virtual-time coordination")
				return false // make(chan T) holds the ChanType; one finding is enough
			}
			return true
		})
	}
	return out
}
