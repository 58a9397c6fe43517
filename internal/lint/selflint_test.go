package lint

import (
	"strings"
	"sync"
	"testing"
)

var moduleOnce struct {
	sync.Once
	modPath string
	pkgs    []*Package
	err     error
}

// loadModule typechecks the whole module once for the tests below.
func loadModule(t *testing.T) (modPath string, pkgs []*Package) {
	t.Helper()
	if testing.Short() {
		t.Skip("typechecks the entire module plus stdlib dependencies from source")
	}
	m := &moduleOnce
	m.Do(func() {
		var root string
		if root, m.err = FindModuleRoot("."); m.err != nil {
			return
		}
		var loader *Loader
		if loader, m.err = NewLoader(root); m.err != nil {
			return
		}
		m.modPath = loader.ModulePath()
		m.pkgs, m.err = loader.LoadModule()
	})
	if m.err != nil {
		t.Fatal(m.err)
	}
	if len(m.pkgs) == 0 {
		t.Fatal("LoadModule found no packages")
	}
	return m.modPath, m.pkgs
}

// TestModuleIsLintClean runs every analyzer over the whole module and
// requires zero active findings — the same gate cmd/protoclustvet
// enforces in CI. Suppressions are reported for audit but do not fail
// the test; a suppression without a reason never registers at all.
func TestModuleIsLintClean(t *testing.T) {
	_, pkgs := loadModule(t)
	res := Run(pkgs, All)
	for _, f := range res.Findings {
		t.Errorf("%s", f)
	}
	for _, s := range res.Suppressed {
		t.Logf("suppressed: %s", s)
	}
}

// TestInternalPackagesAreImported requires every package under
// internal/ to have at least one importer among the module's non-test
// files: a package only its own tests reach keeps no command, service
// route or library entry alive. internal/oracle is exempt, because it
// exists for the differential tests alone; lint's testdata fixtures
// are not module packages.
func TestInternalPackagesAreImported(t *testing.T) {
	modPath, pkgs := loadModule(t)
	imported := map[string]bool{}
	for _, p := range pkgs {
		for _, imp := range p.Types.Imports() {
			imported[imp.Path()] = true
		}
	}
	internal := modPath + "/internal/"
	for _, p := range pkgs {
		if !strings.HasPrefix(p.Path, internal) || p.Path == internal+"oracle" {
			continue
		}
		if !imported[p.Path] {
			t.Errorf("%s has no non-test importer", p.Path)
		}
	}
}
