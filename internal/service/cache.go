package service

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"strconv"
	"sync"

	"protoclust"
	"protoclust/internal/core"
)

// CacheKey derives the content address of an analysis: the SHA-256 of
// the canonical Options encoding followed by the length-framed payloads
// of the (already deduplicated) trace. Two submissions with identical
// deduplicated payload bytes and identical effective configuration
// therefore share a key, regardless of message order metadata,
// duplicate count, or transport framing.
func CacheKey(tr *protoclust.Trace, o protoclust.Options) string {
	return cacheKey(tr, o, "")
}

// cacheKey is the content address of every job kind: SHA-256 over the
// canonical options, the kind's canonical suffix (empty for analysis),
// and the length-framed payloads.
func cacheKey(tr *protoclust.Trace, o protoclust.Options, suffix string) string {
	h := sha256.New()
	writeCanonicalOptions(h, o)
	h.Write([]byte(suffix))
	var frame [8]byte
	for _, m := range tr.Messages {
		binary.LittleEndian.PutUint64(frame[:], uint64(len(m.Data)))
		h.Write(frame[:])
		h.Write(m.Data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// canonicalCoverage declares the cache disposition of every exported
// field reachable from protoclust.Options (nested structs flattened
// with a dot): "hashed" fields enter the canonical encoding below;
// "neutral" fields are deliberately excluded because they cannot change
// the analysis outcome — the matrix memory budget, backend, and spill
// directory only move where the dissimilarity matrix lives, never what
// it contains (every backend is bit-identical). The reflection test
// TestCanonicalOptionsCoverage fails compilation-adjacent: adding an
// Options or core.Params field without classifying it here breaks the
// build's test run, so distinct configurations can never silently share
// cache entries.
var canonicalCoverage = map[string]string{
	"Segmenter":     "hashed",
	"NoDeduplicate": "hashed",
	"MemoryBudget":  "neutral",

	"Params.Penalty":                  "hashed",
	"Params.KneedleSensitivity":       "hashed",
	"Params.SplineSmoothness":         "hashed",
	"Params.EpsRhoThreshold":          "hashed",
	"Params.NeighborDensityThreshold": "hashed",
	"Params.LargeClusterShare":        "hashed",
	"Params.PercentRankThreshold":     "hashed",
	"Params.DisableRefinement":        "hashed",
	"Params.FixedEpsilon":             "hashed",
	"Params.FixedK":                   "hashed",
	"Params.EpsQuantile":              "hashed",
	"Params.Clusterer":                "hashed",
	"Params.MemoryBudget":             "neutral",
	"Params.MatrixBackend":            "neutral",
	"Params.MatrixSpillDir":           "neutral",
}

// writeCanonicalOptions encodes every analysis-relevant Options field in
// a fixed order with explicit separators, so the encoding is injective
// and stable across processes. New Params fields must be added here and
// classified in canonicalCoverage to keep distinct configurations from
// sharing cache entries.
func writeCanonicalOptions(h hash.Hash, o protoclust.Options) {
	p := o.Params
	if p == (core.Params{}) {
		p = core.DefaultParams()
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	fmt.Fprintf(h, "v2\x00seg=%s\x00dedup=%t\x00penalty=%s\x00ks=%s\x00ss=%s\x00rho=%s\x00nd=%s\x00lcs=%s\x00prt=%s\x00norefine=%t\x00feps=%s\x00fk=%d\x00epsq=%s\x00clusterer=%s\x00",
		o.Segmenter, !o.NoDeduplicate, f(p.Penalty), f(p.KneedleSensitivity),
		f(p.SplineSmoothness), f(p.EpsRhoThreshold), f(p.NeighborDensityThreshold),
		f(p.LargeClusterShare), f(p.PercentRankThreshold), p.DisableRefinement,
		f(p.FixedEpsilon), p.FixedK, f(p.EpsQuantile), p.Clusterer)
}

// cacheEntry is one cached outcome.
type cacheEntry[T any] struct {
	key    string
	report *T
}

// jsonCache is a bounded, content-addressed LRU of JSON-serializable
// values with an optional disk spill: entries evicted from (or inserted
// into) memory are kept as JSON blobs under Dir, so a warm directory
// survives restarts and an in-memory miss can still be served without
// recomputing the matrix. The Cache alias instantiates it for analysis
// reports; the kind table instantiates it once per job kind.
type jsonCache[T any] struct {
	mu      sync.Mutex
	max     int
	dir     string
	entries map[string]*list.Element
	lru     *list.List // front = most recently used
}

// Cache is the analysis-report instantiation of jsonCache.
type Cache = jsonCache[protoclust.Report]

// NewCache returns a cache bounded to maxEntries in memory (minimum 1),
// spilling to dir when non-empty. The directory is created on first
// write; disk errors are treated as misses, never as failures.
func NewCache(maxEntries int, dir string) *Cache {
	return newJSONCache[protoclust.Report](maxEntries, dir)
}

func newJSONCache[T any](maxEntries int, dir string) *jsonCache[T] {
	if maxEntries < 1 {
		maxEntries = 1
	}
	return &jsonCache[T]{
		max:     maxEntries,
		dir:     dir,
		entries: make(map[string]*list.Element),
		lru:     list.New(),
	}
}

// Get returns the cached value for key, consulting memory first and
// then the disk spill. A disk hit is promoted back into memory.
func (c *jsonCache[T]) Get(key string) (*T, bool) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		r := el.Value.(*cacheEntry[T]).report
		c.mu.Unlock()
		return r, true
	}
	c.mu.Unlock()
	if c.dir == "" {
		return nil, false
	}
	b, err := os.ReadFile(c.spillPath(key))
	if err != nil {
		return nil, false
	}
	var r T
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, false
	}
	c.put(key, &r, false) // already on disk; no need to rewrite
	return &r, true
}

// Put stores the value under key, evicting the least recently used
// in-memory entry beyond the bound and spilling the new entry to disk
// when a spill directory is configured.
func (c *jsonCache[T]) Put(key string, r *T) { c.put(key, r, true) }

func (c *jsonCache[T]) put(key string, r *T, spill bool) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheEntry[T]).report = r
		c.lru.MoveToFront(el)
	} else {
		c.entries[key] = c.lru.PushFront(&cacheEntry[T]{key: key, report: r})
		for c.lru.Len() > c.max {
			last := c.lru.Back()
			c.lru.Remove(last)
			delete(c.entries, last.Value.(*cacheEntry[T]).key)
		}
	}
	c.mu.Unlock()
	if spill && c.dir != "" {
		if b, err := json.Marshal(r); err == nil {
			if err := os.MkdirAll(c.dir, 0o755); err == nil {
				tmp := c.spillPath(key) + ".tmp"
				if err := os.WriteFile(tmp, b, 0o644); err == nil {
					// Spill is a best-effort warm cache; a failed rename
					// only costs a future recomputation.
					_ = os.Rename(tmp, c.spillPath(key))
				}
			}
		}
	}
}

// resultCache is a jsonCache seen through the kind table, where each
// kind stores its own result type.
type resultCache interface {
	getAny(key string) (any, bool)
	putAny(key string, v any)
}

func (c *jsonCache[T]) getAny(key string) (any, bool) { return c.Get(key) }

func (c *jsonCache[T]) putAny(key string, v any) { c.Put(key, v.(*T)) }

// Len returns the number of in-memory entries.
func (c *jsonCache[T]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

func (c *jsonCache[T]) spillPath(key string) string {
	return filepath.Join(c.dir, key+".json")
}
