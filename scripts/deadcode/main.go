// Command deadcode lists the declarations under internal/ that no program
// reaches. It loads the non-test packages of the root module and of
// perfbench, which imports the root module through a replace directive,
// type-checks them with go/types, and marks objects live from every
// main.main, every init function and every package-level var
// initializer, following each identifier the type checker resolves. A
// live named type that implements an interface the loaded code mentions
// (the type of an expression or a parameter of a function it calls),
// error, or one of the interfaces the standard library finds by type
// assertion (fmt.Stringer and the marshalers), keeps the methods that
// interface declares.
//
// Every unreached package-level declaration or method under internal/ is
// printed as file:line. The command exits 1 unless each one has a line in
// the allowlist, and also on an allowlist line whose declaration is live
// or gone. Allowlisted declarations count as roots, so what they use
// stays with them.
//
// Usage, from the repository root:
//
//	go run ./scripts/deadcode
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	ok, err := run([]string{".", "perfbench"}, "scripts/deadcode/allow.txt", os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "deadcode:", err)
		os.Exit(2)
	}
	if !ok {
		os.Exit(1)
	}
}

// pkg is the part of `go list -json` output the checker reads.
type pkg struct {
	ImportPath, Dir string
	GoFiles         []string
	Standard        bool
	Module          *struct {
		Path string
		Main bool
	}
}

// graph is the reference graph of the loaded code.
type graph struct {
	deps   map[types.Object][]types.Object // what a declaration's body, type or value uses
	roots  []types.Object                  // what main.main, init bodies and var initializers use
	ifaces []*types.Interface              // the interfaces the loaded code mentions, and the built-in ones
	seen   map[*types.Interface]bool
}

// run checks the modules in dirs, the first being the one whose internal/
// packages are reported, against the allowlist at allowPath. It writes the
// findings to w and reports whether there were none.
func run(dirs []string, allowPath string, w io.Writer) (bool, error) {
	allow, err := readAllow(allowPath)
	if err != nil {
		return false, err
	}
	var pkgs []pkg
	seen := map[string]bool{}
	modPath := ""
	for i, dir := range dirs {
		list, err := goList(dir)
		if err != nil {
			return false, err
		}
		for _, p := range list {
			if i == 0 && p.Module != nil && p.Module.Main {
				modPath = p.Module.Path
			}
			if !p.Standard && !seen[p.ImportPath] {
				seen[p.ImportPath] = true
				pkgs = append(pkgs, p)
			}
		}
	}

	// go list -deps prints every package after its dependencies, so each
	// import is checked by the time a package needs it.
	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "source", nil)
	checked := map[string]*types.Package{}
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return std.Import(path)
	})}
	g := &graph{deps: map[types.Object][]types.Object{}, seen: map[*types.Interface]bool{}}
	g.mention(types.Universe.Lookup("error").Type())
	for path, names := range implicit {
		p, err := std.Import(path)
		if err != nil {
			return false, err
		}
		for _, n := range names {
			g.mention(p.Scope().Lookup(n).Type())
		}
	}
	var candidates []types.Object
	for _, p := range pkgs {
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, 0)
			if err != nil {
				return false, err
			}
			files = append(files, f)
		}
		info := &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		}
		tp, err := conf.Check(p.ImportPath, fset, files, info)
		if err != nil {
			return false, err
		}
		checked[p.ImportPath] = tp
		g.add(tp, files, info)
		if strings.HasPrefix(p.ImportPath, modPath+"/internal/") {
			candidates = append(candidates, declared(tp)...)
		}
	}

	// An allowlist line must name a declaration no program reaches; those
	// declarations are the extra roots of a second pass.
	live := g.reach(nil)
	unreached := map[string]types.Object{}
	for _, o := range candidates {
		if !live[o] {
			unreached[name(o, modPath)] = o
		}
	}
	ok := true
	var kept []types.Object
	for _, n := range allow {
		if o, found := unreached[n]; found {
			kept = append(kept, o)
		} else {
			fmt.Fprintf(w, "%s: allowlist entry %s is live or gone\n", allowPath, n)
			ok = false
		}
	}
	live = g.reach(kept)
	sort.Slice(candidates, func(i, j int) bool { return candidates[i].Pos() < candidates[j].Pos() })
	root, err := filepath.Abs(dirs[0])
	if err != nil {
		return false, err
	}
	for _, o := range candidates {
		if live[o] {
			continue
		}
		pos := fset.Position(o.Pos())
		if rel, err := filepath.Rel(root, pos.Filename); err == nil {
			pos.Filename = rel
		}
		fmt.Fprintf(w, "%s:%d: %s is unreached\n", pos.Filename, pos.Line, name(o, modPath))
		ok = false
	}
	return ok, nil
}

// goList returns the packages `go list -deps ./...` finds in dir.
func goList(dir string) ([]pkg, error) {
	cmd := exec.Command("go", "list", "-deps", "-json=ImportPath,Dir,GoFiles,Standard,Module", "./...")
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %w", dir, err)
	}
	var list []pkg
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p pkg
		if err := dec.Decode(&p); errors.Is(err, io.EOF) {
			return list, nil
		} else if err != nil {
			return nil, fmt.Errorf("go list in %s: %w", dir, err)
		}
		list = append(list, p)
	}
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// declared returns a package's package-level objects and the methods of
// its named types.
func declared(p *types.Package) []types.Object {
	var out []types.Object
	for _, n := range p.Scope().Names() {
		o := p.Scope().Lookup(n)
		out = append(out, o)
		if tn, ok := o.(*types.TypeName); ok && !tn.IsAlias() {
			if named, ok := tn.Type().(*types.Named); ok {
				for i := 0; i < named.NumMethods(); i++ {
					out = append(out, named.Method(i))
				}
			}
		}
	}
	return out
}

// name is how the report and the allowlist spell a declaration: its
// package path within the module, then Type.Method or the plain name.
func name(o types.Object, modPath string) string {
	n := strings.TrimPrefix(o.Pkg().Path(), modPath+"/") + "."
	if sig, ok := o.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		n += t.(*types.Named).Obj().Name() + "."
	}
	return n + o.Name()
}

// add records the references of one type-checked package.
func (g *graph) add(p *types.Package, files []*ast.File, info *types.Info) {
	uses := func(n ast.Node) []types.Object {
		var out []types.Object
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if o := origin(info.Uses[id]); o != nil && o.Pkg() != nil {
					out = append(out, o)
				}
			}
			return true
		})
		return out
	}
	for _, f := range files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && p.Name() == "main") {
					g.roots = append(g.roots, uses(d)...)
				} else {
					g.deps[info.Defs[d.Name]] = uses(d)
				}
			case *ast.GenDecl:
				var last []types.Object // a const spec without values repeats the previous one
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						g.deps[info.Defs[s.Name]] = uses(s)
					case *ast.ValueSpec:
						var ds []types.Object
						if s.Type != nil {
							ds = uses(s.Type)
						}
						for _, v := range s.Values {
							if d.Tok == token.CONST {
								ds = append(ds, uses(v)...)
							} else {
								g.roots = append(g.roots, uses(v)...)
							}
						}
						if d.Tok == token.CONST && s.Type == nil && len(s.Values) == 0 {
							ds = last
						}
						last = ds
						for _, n := range s.Names {
							if o := info.Defs[n]; o != nil {
								g.deps[o] = ds
							}
						}
					}
				}
			}
		}
	}
	// A value converts to an interface without the program naming it when
	// it is passed as an interface-typed parameter, as sort.Sort(byX(s))
	// passes a sort.Interface.
	for _, tv := range info.Types {
		g.mention(tv.Type)
		if sig, ok := tv.Type.(*types.Signature); ok {
			for i := 0; i < sig.Params().Len(); i++ {
				t := sig.Params().At(i).Type()
				if s, ok := t.(*types.Slice); ok && sig.Variadic() && i == sig.Params().Len()-1 {
					t = s.Elem()
				}
				g.mention(t)
			}
		}
	}
}

// mention records t if it is an interface with methods.
func (g *graph) mention(t types.Type) {
	if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && !g.seen[it] {
		g.seen[it] = true
		g.ifaces = append(g.ifaces, it)
	}
}

// origin maps a use of an instantiated generic function, method or field
// to its declaration.
func origin(o types.Object) types.Object {
	switch o := o.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return o
}

// implicit names the interfaces the standard library calls through a
// type assertion on an any value, so that no program needs to name them.
var implicit = map[string][]string{
	"fmt":           {"Stringer"},
	"encoding":      {"TextMarshaler", "TextUnmarshaler"},
	"encoding/json": {"Marshaler", "Unmarshaler"},
}

// reach returns everything reachable from the program roots and from
// extra. A live named type that implements a mentioned interface keeps
// the methods that interface calls.
func (g *graph) reach(extra []types.Object) map[types.Object]bool {
	live := map[types.Object]bool{}
	work := append(append([]types.Object{}, g.roots...), extra...)
	for len(work) > 0 {
		o := work[len(work)-1]
		work = work[:len(work)-1]
		if live[o] {
			continue
		}
		live[o] = true
		work = append(work, g.deps[o]...)
		if _, ok := o.(*types.TypeName); !ok {
			continue
		}
		ptr := types.NewPointer(o.Type())
		methods := types.NewMethodSet(ptr)
		for _, it := range g.ifaces {
			if !types.Implements(ptr, it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				if sel := methods.Lookup(it.Method(i).Pkg(), it.Method(i).Name()); sel != nil {
					work = append(work, origin(sel.Obj()))
				}
			}
		}
	}
	return live
}

// readAllow reads the allowlist: one `name reason` line per declaration
// kept although no program reaches it. Blank lines and lines starting
// with # are skipped; a line without a reason is an error.
func readAllow(path string) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var names []string
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("%s:%d: %s has no reason", path, i+1, name)
		}
		names = append(names, name)
	}
	return names, nil
}
