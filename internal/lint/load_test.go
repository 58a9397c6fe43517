package lint

import (
	"os"
	"path/filepath"
	"testing"
)

// TestLoadModuleSkipsNestedModules builds a module whose subdirectory
// holds its own go.mod: LoadModule must return the outer module's
// packages and none of the nested module's, as go list ./... does.
func TestLoadModuleSkipsNestedModules(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"go.mod":             "module example.com/outer\n\ngo 1.21\n",
		"a/a.go":             "package a\n\nfunc A() int { return 1 }\n",
		"inner/go.mod":       "module example.com/inner\n\ngo 1.21\n",
		"inner/b/b.go":       "package b\n\nfunc B() int { return 2 }\n",
		"inner/inner.go":     "package inner\n",
		"a/nested/go.mod":    "module example.com/nested\n\ngo 1.21\n",
		"a/nested/nested.go": "package nested\n",
	}
	for name, body := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadModule()
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, p := range pkgs {
		got = append(got, p.Path)
	}
	if len(got) != 1 || got[0] != "example.com/outer/a" {
		t.Errorf("LoadModule = %v, want [example.com/outer/a]", got)
	}
}
