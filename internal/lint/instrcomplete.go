package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"strconv"
)

// The instrcomplete check keeps the observability surface total. Three
// runtime conventions back the repo's reports — telemetry.Registry panics
// on duplicate instrument names at wiring time, layer types expose their
// counters through a Register(*telemetry.Registry, prefix) method, and
// the flight recorder's Kind constants are rendered by Kind.String — and
// each has a silent failure mode this check catches statically:
//
//   - two registrations under one name panic, but only on the first run
//     that wires both (rule A: duplicate name expressions in a function);
//   - a layer with a full hot-path operation surface but no Register
//     method simply vanishes from every report (rule B);
//   - a flight.Append call with an ad-hoc kind value renders as garbage
//     in imcareport timelines (rule C), and a Kind constant missing from
//     Kind.String prints as a bare integer (rule D).
var telemetryRegMethods = map[string]bool{
	"Registry.Counter": true, "Registry.IntCounter": true, "Registry.Gauge": true,
	"Registry.Rate": true, "Registry.Hist": true, "Registry.HistFrom": true,
}

// registerSurface is how many exported sim-actor-first methods a type may
// accumulate before it counts as a full hot-path layer and owes a
// Register method. Three is the smallest real layer surface in the tree
// (read/write/stat); one or two actor methods is a helper, not a layer.
const registerSurface = 3

func checkInstrComplete(pkg *pkgInfo, cfg *Config) []Finding {
	var out []Finding
	out = append(out, instrDupNames(pkg, cfg)...)
	out = append(out, instrRegisterSurface(pkg, cfg)...)
	out = append(out, instrFlightKinds(pkg, cfg)...)
	if pkg.path == cfg.FlightPath {
		out = append(out, instrKindStringTotal(pkg)...)
	}
	return out
}

// instrDupNames flags two registration calls in one function body whose
// name arguments are the same expression — at runtime they render the
// same string and the second panics the Registry. Comparing expression
// text rather than constant values is deliberate: layer names are built
// as prefix+".hits", which never constant-folds but collides all the
// same.
func instrDupNames(pkg *pkgInfo, cfg *Config) []Finding {
	if cfg.TelemetryPath == "" {
		return nil
	}
	var out []Finding
	for _, f := range pkg.files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			seen := make(map[string]bool)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) == 0 {
					return true
				}
				callee := calleeFunc(pkg.info, call)
				if callee == nil || callee.Pkg() == nil || callee.Pkg().Path() != cfg.TelemetryPath ||
					!telemetryRegMethods[funcKey(callee)] {
					return true
				}
				name := types.ExprString(call.Args[0])
				if seen[name] {
					out = append(out, Finding{
						Pos:   pkg.pos(call.Args[0].Pos()),
						Check: "instrcomplete",
						Msg: "instrument name " + name + " is registered twice in " + fd.Name.Name +
							" — the second registration panics the Registry at wiring time",
					})
				}
				seen[name] = true
				return true
			})
		}
	}
	return out
}

// instrRegisterSurface flags a type that has grown a full hot-path
// operation surface (registerSurface exported methods taking a sim actor
// first) without a Register(*telemetry.Registry, ...) method: every run
// through such a layer is invisible to telemetry tables and reports.
func instrRegisterSurface(pkg *pkgInfo, cfg *Config) []Finding {
	if cfg.SimPath == "" || cfg.TelemetryPath == "" || pkg.path == cfg.SimPath {
		return nil
	}
	type surface struct {
		actorMethods []*ast.FuncDecl // exported, actor-first, sorted by name
		hasRegister  bool
	}
	byType := make(map[string]*surface)
	var typeNames []string
	for _, f := range pkg.files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || len(fd.Recv.List) == 0 || fd.Body == nil {
				continue
			}
			fn, ok := pkg.info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			tname := recvTypeName(fd.Recv.List[0].Type)
			s := byType[tname]
			if s == nil {
				s = &surface{}
				byType[tname] = s
				typeNames = append(typeNames, tname)
			}
			if fd.Name.Name == "Register" && firstParamIsRegistry(fn, cfg.TelemetryPath) {
				s.hasRegister = true
			}
			if ast.IsExported(fd.Name.Name) && firstParamIsTask(fn, cfg.SimPath) {
				s.actorMethods = append(s.actorMethods, fd)
			}
		}
	}
	sort.Strings(typeNames)
	var out []Finding
	for _, tname := range typeNames {
		s := byType[tname]
		if s.hasRegister || len(s.actorMethods) < registerSurface {
			continue
		}
		sort.Slice(s.actorMethods, func(i, j int) bool {
			return s.actorMethods[i].Name.Name < s.actorMethods[j].Name.Name
		})
		out = append(out, Finding{
			Pos:   pkg.pos(s.actorMethods[0].Name.Pos()),
			Check: "instrcomplete",
			Msg: tname + " has " + strconv.Itoa(len(s.actorMethods)) +
				" hot-path operations but no Register(*telemetry.Registry, ...) method — the layer is invisible to reports",
		})
	}
	return out
}

func firstParamIsRegistry(fn *types.Func, telemetryPath string) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Params() == nil || sig.Params().Len() == 0 {
		return false
	}
	p, ok := sig.Params().At(0).Type().(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := p.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Registry" && obj.Pkg() != nil && obj.Pkg().Path() == telemetryPath
}

// instrFlightKinds flags flight.Recorder.Append calls whose kind argument
// is not a declared flight.Kind constant: an ad-hoc value has no
// Kind.String name and renders as a bare integer in every timeline.
func instrFlightKinds(pkg *pkgInfo, cfg *Config) []Finding {
	if cfg.FlightPath == "" || pkg.path == cfg.FlightPath {
		return nil
	}
	var out []Finding
	for _, f := range pkg.files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) < 2 {
				return true
			}
			callee := calleeFunc(pkg.info, call)
			if callee == nil || callee.Pkg() == nil || callee.Pkg().Path() != cfg.FlightPath ||
				funcKey(callee) != "Recorder.Append" {
				return true
			}
			if !isDeclaredKindConst(pkg.info, call.Args[1], cfg.FlightPath) {
				out = append(out, Finding{
					Pos:   pkg.pos(call.Args[1].Pos()),
					Check: "instrcomplete",
					Msg: "flight.Append kind must be a declared flight.Kind constant — " +
						"ad-hoc values have no Kind.String name and render as bare integers",
				})
			}
			return true
		})
	}
	return out
}

// isDeclaredKindConst reports whether expr is (a parenthesization of) a
// named constant of the flight package's Kind type.
func isDeclaredKindConst(info *types.Info, expr ast.Expr, flightPath string) bool {
	var id *ast.Ident
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return false
	}
	c, ok := info.Uses[id].(*types.Const)
	if !ok {
		return false
	}
	named, ok := c.Type().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Kind" && obj.Pkg() != nil && obj.Pkg().Path() == flightPath
}

// instrKindStringTotal runs inside the flight package itself: every Kind
// constant must appear as a case label in Kind.String, or new record
// kinds print as integers the day they are first appended.
func instrKindStringTotal(pkg *pkgInfo) []Finding {
	type kindConst struct {
		name string
		decl *ast.Ident
	}
	var kinds []kindConst
	covered := make(map[string]bool)
	for _, f := range pkg.files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					for _, name := range vs.Names {
						c, ok := pkg.info.Defs[name].(*types.Const)
						if !ok {
							continue
						}
						if named, ok := c.Type().(*types.Named); ok && named.Obj().Name() == "Kind" &&
							named.Obj().Pkg() == pkg.types {
							kinds = append(kinds, kindConst{name: name.Name, decl: name})
						}
					}
				}
			case *ast.FuncDecl:
				if d.Name.Name != "String" || d.Recv == nil || len(d.Recv.List) == 0 ||
					recvTypeName(d.Recv.List[0].Type) != "Kind" || d.Body == nil {
					continue
				}
				ast.Inspect(d.Body, func(n ast.Node) bool {
					cc, ok := n.(*ast.CaseClause)
					if !ok {
						return true
					}
					for _, e := range cc.List {
						if id, ok := ast.Unparen(e).(*ast.Ident); ok {
							covered[id.Name] = true
						}
					}
					return true
				})
			}
		}
	}
	var out []Finding
	for _, k := range kinds {
		if !covered[k.name] {
			out = append(out, Finding{
				Pos:   pkg.pos(k.decl.Pos()),
				Check: "instrcomplete",
				Msg:   "flight.Kind constant " + k.name + " is not named by Kind.String — it would render as a bare integer",
			})
		}
	}
	return out
}

// firstParamIsTask reports whether a function's first parameter is a
// *sim.Task.
func firstParamIsTask(fn *types.Func, simPath string) bool {
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Params().Len() > 0 && isSimActor(sig.Params().At(0).Type(), simPath)
}
