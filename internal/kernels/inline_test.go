package kernels

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestHotCallsInline holds the compiler to the inlining the page kernels'
// host cost was measured with: an out-of-line call costs more than the
// decode it wraps. Every call, in the packages that walk pages, to
//
//   - the entry reader's per-entry VID (slottedpage.Entries),
//   - its (2,2) pair, Words and WordVID,
//   - the decoder's Record(buf, slot) — Walker.Record's own included,
//   - Walker.Next and Seek
//
// must be inlined where it is made. Walker.Record itself stays one call per
// record (its lane accounting puts it past the inliner's budget), and so
// does SeekSet. The check builds the packages with -gcflags=-m and finds
// every call site in their non-test sources.
//
// The (2,2) loops are the branches a Words call opens, and they are
// exactly wordLoops: within them every call must be inlined (a
// conversion, a builtin or a math/bits intrinsic is no call), so a (2,2)
// entry loop runs without one.
func TestHotCallsInline(t *testing.T) {
	if testing.Short() {
		t.Skip("builds four packages with -gcflags=-m")
	}
	goTool := filepath.Join(runtime.GOROOT(), "bin", "go")
	if _, err := os.Stat(goTool); err != nil {
		t.Skipf("no go tool beside this test's runtime: %v", err)
	}
	dirs := []string{".", "../slottedpage", "../incremental", "../../examples/customkernel"}
	out, err := exec.Command(goTool, append([]string{"build", "-gcflags=-m"}, dirs...)...).CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m: %v\n%s", err, out)
	}
	// "# repro/internal/slottedpage" opens a package's diagnostics, and
	// "../slottedpage/build.go:261:21: inlining call to Entries.VID" is one.
	// A site is keyed by package, file name and line: the build cache
	// replays a package's diagnostics with the paths of the build that
	// compiled it, relative to that build's directory.
	header := regexp.MustCompile(`^# (\S+)$`)
	line := regexp.MustCompile(`^(\S+\.go):(\d+):\d+: inlining call to (\S+)$`)
	inlined := map[string]int{}
	pkg := ""
	for sc := bufio.NewScanner(bytes.NewReader(out)); sc.Scan(); {
		if m := header.FindStringSubmatch(sc.Text()); m != nil {
			pkg = path.Base(m[1])
		} else if m := line.FindStringSubmatch(sc.Text()); m != nil {
			inlined[siteKey(pkg, m[1], m[2], calleeName(m[3]))]++
		}
	}

	sites := 0
	loops := map[string]bool{}
	fset := token.NewFileSet()
	for _, dir := range dirs {
		abs, err := filepath.Abs(dir)
		if err != nil {
			t.Fatal(err)
		}
		pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }, 0)
		if err != nil {
			t.Fatal(err)
		}
		key := func(call *ast.CallExpr, name string) (token.Position, string) {
			pos := fset.Position(call.Pos())
			return pos, siteKey(filepath.Base(abs), pos.Filename, strconv.Itoa(pos.Line), name)
		}
		for _, pkg := range pkgs {
			for _, f := range pkg.Files {
				for _, decl := range f.Decls {
					fn, ok := decl.(*ast.FuncDecl)
					if !ok {
						continue
					}
					ast.Inspect(fn, func(n ast.Node) bool {
						if body := wordsBranch(n); body != nil {
							loop := fmt.Sprintf("%s/%s %s", filepath.Base(abs), filepath.Base(fset.Position(fn.Pos()).Filename), fn.Name.Name)
							loops[loop] = true
							ast.Inspect(body, func(n ast.Node) bool {
								if call, ok := n.(*ast.CallExpr); ok && !noCall(call) {
									if pos, k := key(call, callName(call)); inlined[k] == 0 {
										t.Errorf("%s: the (2,2) loop of %s calls %s", pos, loop, callName(call))
									}
								}
								return true
							})
						}
						call, ok := n.(*ast.CallExpr)
						if !ok {
							return true
						}
						name := hotCallee(call)
						if name == "" {
							return true
						}
						sites++
						pos, k := key(call, name)
						if inlined[k] == 0 {
							t.Errorf("%s: call to %s is not inlined", pos, name)
						}
						inlined[k]--
						return true
					})
				}
			}
		}
	}
	// The sites this check was written against: 16 VID (kernels 10,
	// slottedpage 5, the example 1), 5 Words, 5 WordVID, 5 Next, 3 Seek and
	// every Record(buf, slot); fewer means the search lost them.
	if sites < 42 {
		t.Fatalf("found %d hot call sites, want at least 42", sites)
	}
	got := make([]string, 0, len(loops))
	for loop := range loops {
		got = append(got, loop)
	}
	if slices.Sort(got); !slices.Equal(got, wordLoops) {
		t.Errorf("(2,2) loops in %v, want %v", got, wordLoops)
	}
}

// wordLoops are the entry loops that take the (2,2) form beside the
// general VID loop: those of the gated workloads' kernels, by package
// directory, file and function.
var wordLoops = []string{
	"kernels/bfs.go Discover", // BFS, the ball, direction-optimizing push and IncBFS
	"kernels/cc.go RelaxMin",  // CC and IncCC
	"kernels/multibfs.go pass",
	"kernels/pagerank.go scatter",
	"kernels/sssp.go relax",
}

// siteKey names a call site: package directory, file name, line, callee.
func siteKey(pkg, file, line, callee string) string {
	return fmt.Sprintf("%s/%s:%s %s", pkg, filepath.Base(file), line, callee)
}

// wordsBranch is the body of n when n is an if statement whose init calls
// Words — the branch a (2,2) entry loop runs in — and nil otherwise.
func wordsBranch(n ast.Node) *ast.BlockStmt {
	is, ok := n.(*ast.IfStmt)
	if !ok {
		return nil
	}
	as, ok := is.Init.(*ast.AssignStmt)
	if !ok || len(as.Rhs) != 1 {
		return nil
	}
	if call, ok := as.Rhs[0].(*ast.CallExpr); ok && hotCallee(call) == "Words" {
		return is.Body
	}
	return nil
}

// noCall reports whether call compiles to no call: a conversion to a
// predeclared type, a builtin, or a math/bits intrinsic.
func noCall(call *ast.CallExpr) bool {
	switch f := call.Fun.(type) {
	case *ast.Ident:
		return types.Universe.Lookup(f.Name) != nil
	case *ast.SelectorExpr:
		x, ok := f.X.(*ast.Ident)
		return ok && x.Name == "bits"
	}
	return false
}

// callName is the bare name of the function or method call calls.
func callName(call *ast.CallExpr) string {
	fun := call.Fun
	if ix, ok := fun.(*ast.IndexExpr); ok {
		fun = ix.X
	}
	switch f := fun.(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		return f.Sel.Name
	}
	return ""
}

// hotCallee names the call if it is one TestHotCallsInline holds to
// inlining: VID, WordVID, Words and Next (no arguments), Seek, or the
// two-argument Record.
func hotCallee(call *ast.CallExpr) string {
	switch name := callName(call); {
	case name == "VID", name == "WordVID", name == "Seek",
		(name == "Next" || name == "Words") && len(call.Args) == 0,
		name == "Record" && len(call.Args) == 2:
		return name
	}
	return ""
}

// calleeName is the bare function or method name in an -m diagnostic:
// "(*Walker).Next" -> "Next", "slottedpage.Entries.VID" -> "VID",
// "Seek[go.shape.int16]" -> "Seek".
func calleeName(s string) string {
	if i := strings.IndexByte(s, '['); i >= 0 {
		s = s[:i]
	}
	return s[strings.LastIndexByte(s, '.')+1:]
}
