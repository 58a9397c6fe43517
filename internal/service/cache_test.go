package service

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"protoclust"
)

func mustTrace(t *testing.T, proto string, n int, seed int64) *protoclust.Trace {
	t.Helper()
	tr, err := protoclust.GenerateTrace(proto, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestCacheKeyStableAndInjective(t *testing.T) {
	tr := mustTrace(t, "ntp", 40, 1)
	opts := protoclust.DefaultOptions()

	k1 := CacheKey(tr, opts)
	k2 := CacheKey(tr, opts)
	if k1 != k2 {
		t.Fatalf("same inputs produced different keys: %s vs %s", k1, k2)
	}
	if len(k1) != 64 {
		t.Errorf("key length = %d, want 64 hex chars", len(k1))
	}

	// Any analysis-relevant knob must change the key.
	variants := []protoclust.Options{opts, opts, opts, opts}
	variants[1].Segmenter = protoclust.SegmenterNetzob
	variants[2].NoDeduplicate = true
	variants[3].Params = opts.Params
	variants[3].Params.Penalty = 0.123
	seen := map[string]int{}
	for i, o := range variants {
		k := CacheKey(tr, o)
		if prev, dup := seen[k]; dup {
			t.Errorf("options variant %d collides with %d", i, prev)
		}
		seen[k] = i
	}

	// Different payload bytes change the key.
	if CacheKey(mustTrace(t, "ntp", 40, 2), opts) == k1 {
		t.Error("different trace shares the key")
	}
}

func TestCacheKeyDeduplicationInvariant(t *testing.T) {
	// The service keys on deduplicated payloads, so a trace and its
	// duplicate-free projection address the same entry.
	tr := mustTrace(t, "ntp", 80, 3)
	opts := protoclust.DefaultOptions()
	dedup := tr.Deduplicate()
	if len(dedup.Messages) == len(tr.Messages) {
		t.Skip("generated trace has no duplicates; nothing to assert")
	}
	if CacheKey(dedup, opts) != CacheKey(dedup.Deduplicate(), opts) {
		t.Error("deduplication is not idempotent under CacheKey")
	}
}

func TestCacheLRUBound(t *testing.T) {
	c := NewCache(2, "")
	reports := make([]*protoclust.Report, 3)
	for i := range reports {
		reports[i] = &protoclust.Report{Messages: i + 1}
		c.Put(fmt.Sprintf("k%d", i), reports[i])
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	if _, ok := c.Get("k0"); ok {
		t.Error("oldest entry survived eviction")
	}
	for i := 1; i <= 2; i++ {
		r, ok := c.Get(fmt.Sprintf("k%d", i))
		if !ok || r.Messages != i+1 {
			t.Errorf("k%d: ok=%v r=%+v", i, ok, r)
		}
	}

	// Touching k1 makes k2 the eviction victim.
	c.Get("k1")
	c.Put("k3", &protoclust.Report{Messages: 4})
	if _, ok := c.Get("k2"); ok {
		t.Error("recently-used entry was evicted instead of the LRU one")
	}
	if _, ok := c.Get("k1"); !ok {
		t.Error("touched entry was evicted")
	}
}

func TestCacheDiskSpill(t *testing.T) {
	dir := t.TempDir()
	c := NewCache(1, dir)
	c.Put("aaaa", &protoclust.Report{Messages: 11, Epsilon: 0.25})
	c.Put("bbbb", &protoclust.Report{Messages: 22}) // evicts aaaa from memory

	// The evicted entry is still served from disk and promoted back.
	r, ok := c.Get("aaaa")
	if !ok || r.Messages != 11 || r.Epsilon != 0.25 {
		t.Fatalf("disk spill miss: ok=%v r=%+v", ok, r)
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1 (bounded after promotion)", c.Len())
	}

	// A fresh cache over the same directory is warm.
	c2 := NewCache(4, dir)
	if r, ok := c2.Get("bbbb"); !ok || r.Messages != 22 {
		t.Errorf("warm-start miss: ok=%v r=%+v", ok, r)
	}

	// Corrupt spill files are treated as misses, not failures.
	if err := os.WriteFile(filepath.Join(dir, "cccc.json"), []byte("{broken"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.Get("cccc"); ok {
		t.Error("corrupt spill file served as a hit")
	}
}

func TestCacheMemoryOnlyMiss(t *testing.T) {
	c := NewCache(8, "")
	if _, ok := c.Get("nope"); ok {
		t.Error("empty cache returned a hit")
	}
}

// canonicalEncoding digests writeCanonicalOptions' output for
// comparison in tests.
func canonicalEncoding(o protoclust.Options) string {
	h := sha256.New()
	writeCanonicalOptions(h, o)
	return hex.EncodeToString(h.Sum(nil))
}

// optionsFieldPaths flattens every exported field reachable from
// protoclust.Options, nested structs joined with dots
// ("Params.Penalty").
func optionsFieldPaths() []string {
	var paths []string
	var walk func(prefix string, typ reflect.Type)
	walk = func(prefix string, typ reflect.Type) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if !f.IsExported() {
				continue
			}
			if f.Type.Kind() == reflect.Struct {
				walk(prefix+f.Name+".", f.Type)
				continue
			}
			paths = append(paths, prefix+f.Name)
		}
	}
	walk("", reflect.TypeOf(protoclust.Options{}))
	return paths
}

// perturb returns DefaultOptions with the field at path changed to a
// distinct value (reflection over the flattened path).
func perturb(t *testing.T, path string) protoclust.Options {
	t.Helper()
	opts := protoclust.DefaultOptions()
	v := reflect.ValueOf(&opts).Elem()
	for {
		i := 0
		for i < len(path) && path[i] != '.' {
			i++
		}
		v = v.FieldByName(path[:i])
		if !v.IsValid() {
			t.Fatalf("field path %q does not resolve", path)
		}
		if i == len(path) {
			break
		}
		path = path[i+1:]
	}
	switch v.Kind() {
	case reflect.String:
		v.SetString(v.String() + "-perturbed")
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Float64:
		v.SetFloat(v.Float() + 0.127)
	case reflect.Int, reflect.Int64:
		v.SetInt(v.Int() + 12345)
	default:
		t.Fatalf("field %q has unsupported kind %s; teach perturb about it", path, v.Kind())
	}
	return opts
}

// TestCanonicalOptionsCoverage reflects over protoclust.Options and
// holds writeCanonicalOptions to the canonicalCoverage contract: every
// exported field (including nested core.Params fields) must be
// classified, no stale classifications may linger, and the declared
// disposition must actually hold — perturbing a hashed field changes
// the canonical encoding, perturbing a neutral field leaves it alone.
// A new Options or Params knob therefore cannot ship without a
// deliberate cache decision.
func TestCanonicalOptionsCoverage(t *testing.T) {
	paths := optionsFieldPaths()
	seen := make(map[string]bool, len(paths))
	for _, p := range paths {
		seen[p] = true
		if canonicalCoverage[p] == "" {
			t.Errorf("field %s is not classified in canonicalCoverage; declare it hashed or neutral", p)
		}
	}
	for p, class := range canonicalCoverage {
		if !seen[p] {
			t.Errorf("canonicalCoverage lists %s, which no longer exists on protoclust.Options", p)
		}
		if class != "hashed" && class != "neutral" {
			t.Errorf("field %s has unknown class %q", p, class)
		}
	}

	base := canonicalEncoding(protoclust.DefaultOptions())
	for _, p := range paths {
		got := canonicalEncoding(perturb(t, p))
		switch canonicalCoverage[p] {
		case "hashed":
			if got == base {
				t.Errorf("perturbing hashed field %s did not change the canonical encoding", p)
			}
		case "neutral":
			if got != base {
				t.Errorf("perturbing neutral field %s changed the canonical encoding; it would split the cache", p)
			}
		}
	}
}

// TestCacheKeysPinned pins the hex content addresses of all three job
// kinds for one fixed trace and fixed options. The values were captured
// before the job kinds shared one key function; any drift would turn
// every warm -cache-dir entry (root, sweeps/, formats/) into a miss.
func TestCacheKeysPinned(t *testing.T) {
	tr := mustTrace(t, "ntp", 20, 1).Deduplicate()
	opts := protoclust.DefaultOptions()
	opts.Segmenter = protoclust.SegmenterTruth
	sw := SweepRequest{
		Segmenters: []string{protoclust.SegmenterTruth, protoclust.SegmenterNEMESYS},
		Clusterers: []string{"dbscan"},
		Ks:         []int{0, 2},
		EpsSources: []string{"knee", "quantile:0.5"},
		Ensemble:   true,
		Weighted:   true,
	}
	fr := FormatRequest{TrainProto: "dns", TrainN: 50, TrainSeed: 7}
	for _, tc := range []struct{ name, got, want string }{
		{"analysis", CacheKey(tr, opts), "7357b64a2778f06ead8d54e1a82556f72444c8636c3cf1d87f285b1a25a44b66"},
		{"sweep", SweepCacheKey(tr, opts, &sw), "1684d88d72612cb5af11d255b9ca329b8840c23b2e29724077391be41a0c287c"},
		{"format", FormatCacheKey(tr, opts, &fr), "c7b801f22370e729e776bdd1f1f163e22a8820d9e4ef48171c3cc477eae3f873"},
	} {
		if tc.got != tc.want {
			t.Errorf("%s key = %s, want %s", tc.name, tc.got, tc.want)
		}
	}
}
