package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
)

// record is the checked output of one job. Floats are compared
// bit-for-bit: the pipeline is deterministic per (spec, seed).
type record struct {
	Epsilon  float64 `json:"epsilon,omitempty"`
	K        int     `json:"k,omitempty"`
	Clusters int     `json:"clusters,omitempty"`
	Noise    int     `json:"noise,omitempty"`
	FScore   float64 `json:"f_score,omitempty"`
	// Digest is the SHA-256 of a service result body (report or
	// message-format schema).
	Digest string `json:"digest,omitempty"`
}

// expectedFile is the layout of expected.json.
type expectedFile struct {
	// Commit names the code the records were generated from.
	Commit  string            `json:"commit"`
	Records map[string]record `json:"records"`
}

// checker compares job outputs with expected.json, or collects them
// when regenerating it. Safe for concurrent use.
type checker struct {
	want   map[string]record
	update bool

	mu  sync.Mutex
	got map[string]record
}

func loadChecker(path string) (*checker, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("expected outputs: %w", err)
	}
	var f expectedFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("expected outputs %s: %w", path, err)
	}
	if len(f.Records) == 0 {
		return nil, fmt.Errorf("expected outputs %s: no records", path)
	}
	return &checker{want: f.Records}, nil
}

func newRecorder() *checker {
	return &checker{update: true, got: make(map[string]record)}
}

// check reports whether got matches the expected record of key.
func (c *checker) check(key string, got record) error {
	if c.update {
		c.mu.Lock()
		defer c.mu.Unlock()
		if prev, ok := c.got[key]; ok && prev != got {
			return fmt.Errorf("%s: nondeterministic output: %+v, then %+v", key, prev, got)
		}
		c.got[key] = got
		return nil
	}
	want, ok := c.want[key]
	if !ok {
		return fmt.Errorf("%s: no expected record", key)
	}
	if got != want {
		return fmt.Errorf("%s: output %+v, expected %+v", key, got, want)
	}
	return nil
}

func (c *checker) save(path, commit string) error {
	data, err := json.MarshalIndent(expectedFile{Commit: commit, Records: c.got}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
