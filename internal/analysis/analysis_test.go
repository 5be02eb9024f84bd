package analysis

// The fixture tests mirror golang.org/x/tools' analysistest: each package
// under testdata/src is a small program exercising one analyzer, and every
// line expected to produce a finding carries a trailing comment of the form
//
//	// want "regex" ["regex" ...]
//
// The test fails on any diagnostic without a matching want on its line and on
// any want without a matching diagnostic — so each fixture proves both that
// the violation fires and that the conforming/suppressed variants stay quiet.

import (
	"fmt"
	"regexp"
	"strings"
	"sync"
	"testing"
)

var (
	fixturesOnce sync.Once
	fixturePkgs  []*Package
	fixturesErr  error
)

func loadFixtures(t *testing.T) []*Package {
	t.Helper()
	fixturesOnce.Do(func() {
		fixturePkgs, fixturesErr = LoadDir("testdata")
	})
	if fixturesErr != nil {
		t.Fatalf("loading fixtures: %v", fixturesErr)
	}
	return fixturePkgs
}

// wantRx extracts the quoted patterns of a `// want "..." "..."` comment.
var wantRx = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

type wantDiag struct {
	rx      *regexp.Regexp
	matched bool
}

func checkFixture(t *testing.T, a *Analyzer, pkgPath string) {
	t.Helper()
	checkFixtureAll(t, []*Analyzer{a}, pkgPath)
}

// checkFixtureAll runs several analyzers over one fixture package against its
// combined want set — for fixtures (like trace) that one analyzer must flag
// and another must stay quiet on.
func checkFixtureAll(t *testing.T, as []*Analyzer, pkgPath string) {
	t.Helper()
	var pkg *Package
	for _, p := range loadFixtures(t) {
		if p.Path == pkgPath {
			pkg = p
		}
	}
	if pkg == nil {
		t.Fatalf("fixture package %q not found under testdata/src", pkgPath)
	}

	wants := map[string][]*wantDiag{} // "file:line" -> expectations
	for _, f := range pkg.Files {
		tf := pkg.Fset.File(f.Pos())
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				key := fmt.Sprintf("%s:%d", tf.Name(), tf.Line(c.Pos()))
				for _, m := range wantRx.FindAllStringSubmatch(text, -1) {
					rx, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s: bad want pattern %q: %v", key, m[1], err)
					}
					wants[key] = append(wants[key], &wantDiag{rx: rx})
				}
			}
		}
	}

	diags, err := Run(as, []*Package{pkg})
	if err != nil {
		t.Fatalf("%s: %v", pkgPath, err)
	}
	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
		found := false
		for _, w := range wants[key] {
			if !w.matched && w.rx.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s: expected diagnostic matching %q, got none", key, w.rx)
			}
		}
	}
}

func TestMapdet(t *testing.T)      { checkFixture(t, Mapdet, "mapdet") }
func TestPoolreset(t *testing.T)   { checkFixture(t, Poolreset, "poolreset") }
func TestCtxfirst(t *testing.T)    { checkFixture(t, Ctxfirst, "ctxfirst") }
func TestDensepath(t *testing.T)   { checkFixture(t, Densepath, "densepath") }
func TestCodecfields(t *testing.T) { checkFixture(t, Codecfields, "codecfields") }
func TestErrclass(t *testing.T)    { checkFixture(t, Errclass, "errclass") }

// TestCtxfirstMainExempt pins the one deliberate hole in ctxfirst: package
// main owns the process and is where root contexts are minted.
func TestCtxfirstMainExempt(t *testing.T) { checkFixture(t, Ctxfirst, "ctxmain") }

// TestRecorderFixture runs poolreset and ctxfirst together over the
// miniature trace package: the conforming pooled Recorder (reset reassigns
// steps and open, mutex kept) is quiet, the leaky twin whose reset forgets
// the open-step cursor fires, and ctxfirst stays silent — the recorder
// legitimately lives in a pool and on the context there, never in a struct
// (the violating struct-held recorder lives in the ctxfirst fixture).
func TestRecorderFixture(t *testing.T) { checkFixtureAll(t, []*Analyzer{Poolreset, Ctxfirst}, "trace") }

// TestPoolresetGuardsRunScratch: on the real engine package, poolreset sees
// RunOnLayout's run scratch enter its free list, and with it the Context and
// foldState whose reset methods it then holds to every field.
func TestPoolresetGuardsRunScratch(t *testing.T) {
	pkgs, err := Load("../..", "./internal/engine")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages, want internal/engine alone", len(pkgs))
	}
	reach := map[string]bool{}
	for n := range pooledReach(newPass(Poolreset, pkgs[0], new([]Diagnostic))) {
		reach[n.Obj().Name()] = true
	}
	for _, name := range []string{"runScratch", "Context", "foldState"} {
		if !reach[name] {
			t.Errorf("poolreset does not see %s as recycled in internal/engine", name)
		}
	}
}
