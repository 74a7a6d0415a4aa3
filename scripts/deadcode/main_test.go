package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The test module under testdata/mod has one declaration of each kind the
// checker must tell apart; testdata/mod/user is a second module that
// replaces it, as perfbench replaces the root module.
var modules = []string{"testdata/mod", "testdata/mod/user"}

// check runs the checker on the test modules with allow as the allowlist
// and returns whether it passed and what it printed.
func check(t *testing.T, allow string) (bool, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "allow.txt")
	if err := os.WriteFile(path, []byte(allow), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	ok, err := run(modules, path, &out)
	if err != nil {
		t.Fatal(err)
	}
	return ok, out.String()
}

// lineOf returns the file:line prefix the checker prints for the line of
// testdata/mod/internal/lib/lib.go that starts with decl.
func lineOf(t *testing.T, decl string) string {
	t.Helper()
	f, err := os.Open("testdata/mod/internal/lib/lib.go")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		if strings.HasPrefix(sc.Text(), decl) {
			return fmt.Sprintf("internal/lib/lib.go:%d: ", n)
		}
	}
	t.Fatalf("no line starts with %q", decl)
	return ""
}

func TestReport(t *testing.T) {
	ok, out := check(t, "")
	if ok {
		t.Fatal("checker passed with unreached declarations")
	}
	for decl, name := range map[string]string{
		"func Unused(":               "internal/lib.Unused",
		"func helper(":               "internal/lib.helper",
		"func (T) OnlyTest(":         "internal/lib.T.OnlyTest",
		"func (s Square) Perimeter(": "internal/lib.Square.Perimeter",
		"func (s Square) Size(":      "internal/lib.Square.Size",
	} {
		if want := lineOf(t, decl) + name + " is unreached"; !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	for _, live := range []string{
		"lib.Used ",       // called from main
		"lib.T.String ",   // fmt.Stringer
		"lib.Square.Area", // satisfies the module's own Shape
		"lib.Box.Get",     // through the instantiation Box[int]
		"lib.ForUser",     // called only from the replacing module
		"lib.ByLen.",      // passed to sort.Sort as a sort.Interface
		"lib.J.",          // MarshalJSON, called by encoding/json
	} {
		if strings.Contains(out, live) {
			t.Errorf("%s reported, but a program reaches it:\n%s", live, out)
		}
	}
	if n := strings.Count(out, "\n"); n != 5 {
		t.Errorf("%d findings, want 5:\n%s", n, out)
	}
}

func TestAllowlist(t *testing.T) {
	// An allowlisted declaration is a root: helper, which only Unused
	// calls, is kept with it.
	ok, out := check(t, `# kept on purpose
internal/lib.Unused kept for a test in another package
internal/lib.T.OnlyTest kept for a test in another package
internal/lib.Square.Perimeter kept for a test in another package
internal/lib.Square.Size kept for a test in another package
`)
	if !ok || out != "" {
		t.Fatalf("allowlisted report: ok=%v\n%s", ok, out)
	}
	for _, stale := range []string{"internal/lib.Used", "internal/lib.Gone"} {
		ok, out := check(t, stale+" no longer needed\n")
		if want := "allowlist entry " + stale + " is live or gone"; ok || !strings.Contains(out, want) {
			t.Errorf("stale entry %s: ok=%v, want %q in:\n%s", stale, ok, want, out)
		}
	}
}

func TestAllowlistNeedsReason(t *testing.T) {
	path := filepath.Join(t.TempDir(), "allow.txt")
	if err := os.WriteFile(path, []byte("internal/lib.Unused\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readAllow(path); err == nil {
		t.Fatal("an entry without a reason was accepted")
	}
}
