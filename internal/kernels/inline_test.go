package kernels

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// TestHotCallsInline holds the compiler to the inlining the page kernels'
// host cost was measured with: an out-of-line call costs more than the
// decode it wraps. Every call, in the packages that walk pages, to
//
//   - the entry reader's per-entry VID (slottedpage.Entries),
//   - the decoder's Record(buf, slot) — Walker.Record's own included,
//   - Walker.Next and Seek
//
// must be inlined where it is made. Walker.Record itself stays one call per
// record (its lane accounting puts it past the inliner's budget), and so
// does SeekSet. The check builds the packages with -gcflags=-m and finds
// every call site in their non-test sources.
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
	// "../slottedpage/build.go:261:21: inlining call to Entries.VID"
	line := regexp.MustCompile(`^(\S+\.go):(\d+):\d+: inlining call to (\S+)$`)
	inlined := map[string]int{}
	for sc := bufio.NewScanner(bytes.NewReader(out)); sc.Scan(); {
		if m := line.FindStringSubmatch(sc.Text()); m != nil {
			inlined[fmt.Sprintf("%s:%s %s", filepath.Clean(m[1]), m[2], calleeName(m[3]))]++
		}
	}

	sites := 0
	fset := token.NewFileSet()
	for _, dir := range dirs {
		pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, pkg := range pkgs {
			for _, f := range pkg.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					name := hotCallee(call)
					if name == "" {
						return true
					}
					sites++
					pos := fset.Position(call.Pos())
					key := fmt.Sprintf("%s:%d %s", filepath.Clean(pos.Filename), pos.Line, name)
					if inlined[key] == 0 {
						t.Errorf("%s: call to %s is not inlined", pos, name)
					}
					inlined[key]--
					return true
				})
			}
		}
	}
	// The sites this check was written against: 18 VID (kernels 11,
	// incremental 1, slottedpage 5, the example 1), 5 Next, 4 Seek and
	// every Record(buf, slot); fewer means the search lost them.
	if sites < 30 {
		t.Fatalf("found %d hot call sites, want at least 30", sites)
	}
}

// hotCallee names the call if it is one TestHotCallsInline holds to
// inlining: VID, Next (no arguments), Seek, or the two-argument Record.
func hotCallee(call *ast.CallExpr) string {
	fun := call.Fun
	if ix, ok := fun.(*ast.IndexExpr); ok {
		fun = ix.X
	}
	var name string
	switch f := fun.(type) {
	case *ast.Ident:
		name = f.Name
	case *ast.SelectorExpr:
		name = f.Sel.Name
	}
	switch {
	case name == "VID", name == "Seek",
		name == "Next" && len(call.Args) == 0,
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
