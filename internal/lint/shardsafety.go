// shardsafety: shard-index provenance analysis for the sharded engine.
// Each Engine worker owns one arc of the ring; inside a worker function
// every access to the per-node arrays (nodes, links) must be indexed by a
// node the arc owns, and every event record enqueued locally must be
// destined for an owned node — the only sanctioned way to affect another
// shard is the SPSC ring send path behind the gate function. The analyzer
// tracks where each node index came from (owned parameter, neighbor
// arithmetic, unknown) through straight-line assignments and flags the
// accesses and calls whose provenance is not owned.
//
// Annotations (in a function's doc comment):
//
//	//shardsafety:worker [owns=<path>,...]
//	    The function runs in worker context: its body is checked, and the
//	    listed parameters (or parameter fields, e.g. rec.node) are node
//	    indices owned by the calling shard's arc. Call sites inside other
//	    workers must pass owned values at those positions.
//
//	//shardsafety:neighbor
//	    The function maps a node index to a neighbor's index; its result
//	    is foreign — usable as a message destination through the gate,
//	    never as an array index or a local enqueue destination.
//
//	//shardsafety:gate
//	    The function is the sanctioned shard-crossing point: callers may
//	    hand it records with foreign destinations, and its own body is
//	    exempt from the checks (it is the code that routes between the
//	    local queue and the SPSC rings).
//
//	//shardsafety:source
//	    The function materializes an event record the calling shard owns
//	    (the run queue's next): after a call, the pointed-to record's
//	    node field is owned.
//
// The analysis is a forward pass over each worker body in source order;
// branches are walked in order and the last write wins. That is exact for
// the engine's straight-line worker functions and errs toward "unknown"
// elsewhere — unknown is rejected where owned is required, so a genuinely
// safe-but-opaque flow (a record popped through an `any`-typed queue, say)
// must carry an explicit //lint:ignore waiver instead of silently passing.
package lint

import (
	"go/ast"
	"go/types"
	"regexp"
	"strings"
)

// ShardSafety is the shard-ownership provenance analyzer.
var ShardSafety = &Analyzer{
	Name:     "shardsafety",
	Doc:      "worker loops may only touch state owned by their arc; cross-shard effects must ride the SPSC gate",
	Packages: []string{"ssrmin/internal/runtime"},
	Run:      runShardSafety,
}

// shardArrays are the Engine fields holding per-node state; indexing them
// inside a worker demands an owned index.
var shardArrays = map[string]bool{"nodes": true, "links": true}

var shardAnnRe = regexp.MustCompile(`^//shardsafety:(worker|neighbor|gate|source)(?:\s+(.*))?$`)

type shardRole struct {
	kind string   // worker, neighbor, gate, source
	owns []string // worker: owned parameter paths ("node", "rec.node")
	decl *ast.FuncDecl
}

// shardRoles indexes every annotated function of the package by its
// *types.Func object, so call sites resolve through the type checker.
func shardRoles(pass *Pass) map[types.Object]*shardRole {
	roles := map[types.Object]*shardRole{}
	for _, f := range pass.Pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			for _, c := range fd.Doc.List {
				m := shardAnnRe.FindStringSubmatch(strings.TrimSpace(c.Text))
				if m == nil {
					continue
				}
				role := &shardRole{kind: m[1], decl: fd}
				for _, arg := range strings.Fields(m[2]) {
					if paths, ok := strings.CutPrefix(arg, "owns="); ok && role.kind == "worker" {
						role.owns = append(role.owns, strings.Split(paths, ",")...)
					} else {
						pass.Reportf(fd.Pos(), "shardsafety: unknown annotation argument %q", arg)
					}
				}
				obj := pass.Pkg.Info.Defs[fd.Name]
				if prev, dup := roles[obj]; dup {
					pass.Reportf(fd.Pos(), "shardsafety: %s has conflicting annotations (%s and %s)", fd.Name.Name, prev.kind, role.kind)
					continue
				}
				roles[obj] = role
			}
		}
	}
	return roles
}

func runShardSafety(pass *Pass) {
	roles := shardRoles(pass)
	if len(roles) == 0 {
		return
	}
	for _, role := range roles {
		if role.kind == "worker" {
			checkWorkerBody(pass, roles, role)
		}
	}
}

// prov is the provenance lattice of a node-index value.
type prov int

const (
	provUnknown prov = iota // not tracked: rejected where owned is required
	provConst               // literal / untyped constant: neutral in arithmetic
	provOwned               // derived from an owned index
	provForeign             // derived from a neighbor call: another arc's index
)

// combine joins the provenance of an arithmetic expression's operands:
// foreign poisons, owned survives constants, anything else is unknown.
func combine(a, b prov) prov {
	switch {
	case a == provForeign || b == provForeign:
		return provForeign
	case a == provConst:
		return b
	case b == provConst:
		return a
	case a == b:
		return a
	}
	return provUnknown
}

// shardFlow is the per-function forward pass: vars holds whole-variable
// provenance, fields holds "var.field" provenance for event records.
type shardFlow struct {
	pass   *Pass
	roles  map[types.Object]*shardRole
	fn     *shardRole
	vars   map[string]prov
	fields map[string]prov
}

func checkWorkerBody(pass *Pass, roles map[types.Object]*shardRole, role *shardRole) {
	if role.decl.Body == nil {
		return
	}
	fl := &shardFlow{pass: pass, roles: roles, fn: role, vars: map[string]prov{}, fields: map[string]prov{}}
	declared := paramNames(role.decl)
	for _, path := range role.owns {
		root := path
		if i := strings.IndexByte(path, '.'); i >= 0 {
			root = path[:i]
			fl.fields[path] = provOwned
		} else {
			fl.vars[path] = provOwned
		}
		if !declared[root] {
			pass.Reportf(role.decl.Pos(), "shardsafety: owns path %q does not name a parameter of %s", path, role.decl.Name.Name)
		}
	}
	fl.walkStmts(role.decl.Body.List)
}

func paramNames(decl *ast.FuncDecl) map[string]bool {
	out := map[string]bool{}
	lists := []*ast.FieldList{decl.Recv, decl.Type.Params}
	for _, l := range lists {
		if l == nil {
			continue
		}
		for _, f := range l.List {
			for _, n := range f.Names {
				out[n.Name] = true
			}
		}
	}
	return out
}

func (fl *shardFlow) walkStmts(stmts []ast.Stmt) {
	for _, s := range stmts {
		fl.walkStmt(s)
	}
}

func (fl *shardFlow) walkStmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		fl.walkStmts(s.List)
	case *ast.AssignStmt:
		fl.checkExprs(s.Rhs)
		fl.recordAssign(s)
		for _, lhs := range s.Lhs {
			fl.checkExpr(lhs)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				fl.checkExprs(vs.Values)
				for i, name := range vs.Names {
					if i < len(vs.Values) {
						fl.setVar(name.Name, vs.Values[i])
					}
				}
			}
		}
	case *ast.ExprStmt:
		fl.checkExpr(s.X)
	case *ast.IfStmt:
		if s.Init != nil {
			fl.walkStmt(s.Init)
		}
		fl.checkExpr(s.Cond)
		fl.walkStmt(s.Body)
		if s.Else != nil {
			fl.walkStmt(s.Else)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			fl.walkStmt(s.Init)
		}
		if s.Cond != nil {
			fl.checkExpr(s.Cond)
		}
		fl.walkStmt(s.Body)
		if s.Post != nil {
			fl.walkStmt(s.Post)
		}
	case *ast.RangeStmt:
		fl.checkExpr(s.X)
		fl.walkStmt(s.Body)
	case *ast.SwitchStmt:
		if s.Init != nil {
			fl.walkStmt(s.Init)
		}
		if s.Tag != nil {
			fl.checkExpr(s.Tag)
		}
		for _, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			fl.checkExprs(cc.List)
			fl.walkStmts(cc.Body)
		}
	case *ast.ReturnStmt:
		fl.checkExprs(s.Results)
	case *ast.IncDecStmt:
		fl.checkExpr(s.X)
	}
}

// recordAssign updates provenance for v = expr, v.field = expr, and keyed
// composite-literal initializations of event records.
func (fl *shardFlow) recordAssign(s *ast.AssignStmt) {
	if len(s.Lhs) != len(s.Rhs) {
		for _, lhs := range s.Lhs {
			if id, ok := lhs.(*ast.Ident); ok {
				fl.vars[id.Name] = provUnknown
			}
		}
		return
	}
	for i, lhs := range s.Lhs {
		switch lhs := lhs.(type) {
		case *ast.Ident:
			fl.setVar(lhs.Name, s.Rhs[i])
		case *ast.SelectorExpr:
			if base, ok := lhs.X.(*ast.Ident); ok {
				fl.fields[base.Name+"."+lhs.Sel.Name] = fl.provOf(s.Rhs[i])
			}
		}
	}
}

// setVar binds name to the provenance of rhs; a keyed composite literal
// additionally seeds the per-field map (rec := eventRec{node: peer, …}).
func (fl *shardFlow) setVar(name string, rhs ast.Expr) {
	fl.vars[name] = fl.provOf(rhs)
	if lit, ok := ast.Unparen(rhs).(*ast.CompositeLit); ok {
		for _, el := range lit.Elts {
			kv, ok := el.(*ast.KeyValueExpr)
			if !ok {
				continue
			}
			if key, ok := kv.Key.(*ast.Ident); ok {
				fl.fields[name+"."+key.Name] = fl.provOf(kv.Value)
			}
		}
	}
}

// provOf computes the provenance of an index-like expression.
func (fl *shardFlow) provOf(e ast.Expr) prov {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if p, ok := fl.vars[e.Name]; ok {
			return p
		}
		if _, isConst := fl.pass.ObjectOf(e).(*types.Const); isConst {
			return provConst
		}
		return provUnknown
	case *ast.BasicLit:
		return provConst
	case *ast.SelectorExpr:
		if base, ok := e.X.(*ast.Ident); ok {
			if p, ok := fl.fields[base.Name+"."+e.Sel.Name]; ok {
				return p
			}
		}
		if obj, ok := fl.selObj(e); ok {
			if _, isConst := obj.(*types.Const); isConst {
				return provConst
			}
		}
		return provUnknown
	case *ast.UnaryExpr:
		return fl.provOf(e.X)
	case *ast.BinaryExpr:
		return combine(fl.provOf(e.X), fl.provOf(e.Y))
	case *ast.IndexExpr:
		// Reading a per-node array at an owned index yields an owned
		// value (nd := &e.nodes[node]).
		if sel, ok := ast.Unparen(e.X).(*ast.SelectorExpr); ok && shardArrays[sel.Sel.Name] {
			return fl.provOf(e.Index)
		}
		return provUnknown
	case *ast.CallExpr:
		if role := fl.calleeRole(e); role != nil && role.kind == "neighbor" {
			return provForeign
		}
		// Integer conversions are transparent (int32(node)).
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok && len(e.Args) == 1 {
			if _, isType := fl.pass.ObjectOf(id).(*types.TypeName); isType {
				return fl.provOf(e.Args[0])
			}
		}
		return provUnknown
	}
	return provUnknown
}

func (fl *shardFlow) selObj(e *ast.SelectorExpr) (types.Object, bool) {
	obj := fl.pass.Pkg.Info.Uses[e.Sel]
	return obj, obj != nil
}

func (fl *shardFlow) checkExprs(exprs []ast.Expr) {
	for _, e := range exprs {
		fl.checkExpr(e)
	}
}

// checkExpr enforces the two rules on every sub-expression: per-node
// array indices must be owned, and calls into worker functions must pass
// owned values at their owns positions.
func (fl *shardFlow) checkExpr(e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IndexExpr:
			sel, ok := ast.Unparen(n.X).(*ast.SelectorExpr)
			if !ok || !shardArrays[sel.Sel.Name] {
				return true
			}
			if p := fl.provOf(n.Index); p != provOwned && p != provConst {
				fl.pass.Reportf(n.Index.Pos(),
					"shardsafety: %s indexes %s with a %s node index %s — workers may only touch state owned by their arc",
					fl.fn.decl.Name.Name, sel.Sel.Name, provName(p), exprKey(n.Index))
			}
		case *ast.CallExpr:
			fl.checkCall(n)
		}
		return true
	})
}

// checkCall verifies owned provenance at the owns positions of a
// worker-annotated callee. Gate callees are exempt by design.
func (fl *shardFlow) checkCall(call *ast.CallExpr) {
	role := fl.calleeRole(call)
	if role == nil {
		return
	}
	switch role.kind {
	case "source":
		// The yielded record's destination becomes owned: next(&rec).
		if len(call.Args) == 1 {
			if arg, ok := stripAddr(call.Args[0]).(*ast.Ident); ok {
				fl.fields[arg.Name+".node"] = provOwned
				fl.vars[arg.Name] = provOwned
			}
		}
	case "worker":
		params := flatParamNames(role.decl)
		for _, path := range role.owns {
			root, field := path, ""
			if i := strings.IndexByte(path, '.'); i >= 0 {
				root, field = path[:i], path[i+1:]
			}
			pos := -1
			for i, name := range params {
				if name == root {
					pos = i
					break
				}
			}
			if pos < 0 || pos >= len(call.Args) {
				continue
			}
			arg := stripAddr(call.Args[pos])
			p := fl.argProv(arg, field)
			if p != provOwned {
				fl.pass.Reportf(call.Args[pos].Pos(),
					"shardsafety: %s passes a %s value for %s of worker %s — only the owning arc may enqueue or step this node",
					fl.fn.decl.Name.Name, provName(p), path, role.decl.Name.Name)
			}
		}
	}
}

// argProv resolves the provenance of a call argument, descending into the
// record field an owns path names (rec.node).
func (fl *shardFlow) argProv(arg ast.Expr, field string) prov {
	if field == "" {
		return fl.provOf(arg)
	}
	switch arg := ast.Unparen(arg).(type) {
	case *ast.Ident:
		if p, ok := fl.fields[arg.Name+"."+field]; ok {
			return p
		}
		return fl.vars[arg.Name]
	case *ast.CompositeLit:
		for _, el := range arg.Elts {
			kv, ok := el.(*ast.KeyValueExpr)
			if !ok {
				continue
			}
			if key, ok := kv.Key.(*ast.Ident); ok && key.Name == field {
				return fl.provOf(kv.Value)
			}
		}
	}
	return provUnknown
}

func (fl *shardFlow) calleeRole(call *ast.CallExpr) *shardRole {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = fl.pass.ObjectOf(fun)
	case *ast.SelectorExpr:
		obj = fl.pass.Pkg.Info.Uses[fun.Sel]
	}
	if obj == nil {
		return nil
	}
	// Generic instantiation: annotations live on the generic decl, whose
	// object is the origin.
	if f, ok := obj.(*types.Func); ok {
		obj = f.Origin()
	}
	return fl.roles[obj]
}

func stripAddr(e ast.Expr) ast.Expr {
	if u, ok := ast.Unparen(e).(*ast.UnaryExpr); ok {
		return ast.Unparen(u.X)
	}
	return ast.Unparen(e)
}

// flatParamNames flattens the non-receiver parameter names in call-site
// argument order.
func flatParamNames(decl *ast.FuncDecl) []string {
	var out []string
	if decl.Type.Params == nil {
		return out
	}
	for _, f := range decl.Type.Params.List {
		if len(f.Names) == 0 {
			out = append(out, "")
			continue
		}
		for _, n := range f.Names {
			out = append(out, n.Name)
		}
	}
	return out
}

func provName(p prov) string {
	switch p {
	case provOwned:
		return "owned"
	case provForeign:
		return "foreign"
	case provConst:
		return "constant"
	}
	return "unknown-provenance"
}
