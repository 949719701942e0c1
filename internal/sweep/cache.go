package sweep

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/exp"
)

// entry is the file form of one cached result: the job's key, exp's Result
// as exp serialises it, and a checksum. One file per job lives under
// <run dir>/results/<key>.json; because the file is named by the job's
// content address, a restarted sweep can trust any file it finds.
type entry struct {
	Key    string      `json:"key"`
	Result *exp.Result `json:"result"`

	// Sum is the hex SHA-256 of the entry's compact JSON with Sum itself
	// empty. The content address in the file name authenticates which job a
	// file answers for; Sum authenticates the answer — a bit flipped at rest
	// (or a result written by a buggy build that then crashed) turns into a
	// recomputed miss instead of silently skewing the aggregate.
	Sum string `json:"sum,omitempty"`
}

// checksum computes the Sum value of e: the hex SHA-256 of its compact JSON
// form with the Sum field empty, so the stored value never hashes itself.
func (e entry) checksum() (string, error) {
	e.Sum = ""
	data, err := json.Marshal(e)
	if err != nil {
		return "", fmt.Errorf("sweep: marshal result: %w", err)
	}
	return hashHex(data), nil
}

// Cache is the content-addressed result store of one run directory.
type Cache struct {
	dir string
	// Log, when non-nil, receives one line per integrity anomaly (a cached
	// file failing its checksum, a stale snapshot discarded).
	Log io.Writer
}

func (c *Cache) logf(format string, args ...any) {
	if c.Log != nil {
		fmt.Fprintf(c.Log, format+"\n", args...)
	}
}

// OpenCache opens (creating if needed) the result store under dir.
func OpenCache(dir string) (*Cache, error) {
	if err := os.MkdirAll(filepath.Join(dir, "results"), 0o755); err != nil {
		return nil, fmt.Errorf("sweep: %w", err)
	}
	return &Cache{dir: dir}, nil
}

func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, "results", key+".json")
}

// Load returns the cached result for key, or (nil, false) when absent,
// unreadable or failing verification — a truncated file from a killed run, a
// file missing its checksum (pre-checksum cache format) and a file whose
// checksum disagrees with its content are all treated as misses and
// recomputed, never trusted.
func (c *Cache) Load(key string) (*exp.Result, bool) {
	data, err := os.ReadFile(c.path(key))
	if err != nil {
		return nil, false
	}
	var e entry
	if err := json.Unmarshal(data, &e); err != nil || e.Key != key {
		return nil, false
	}
	if e.Sum == "" {
		c.logf("sweep: cached result %s has no checksum (old format?), recomputing", key)
		return nil, false
	}
	if sum, _ := e.checksum(); sum != e.Sum {
		c.logf("sweep: cached result %s fails its checksum (stored %.12s…, computed %.12s…), recomputing", key, e.Sum, sum)
		return nil, false
	}
	return e.Result, true
}

// Store persists key's result atomically (write-temp + rename), so a kill
// mid-write leaves a miss, not a corrupt hit. What hits the disk always
// verifies: the checksum is stamped here.
func (c *Cache) Store(key string, res *exp.Result) error {
	e := entry{Key: key, Result: res}
	sum, err := e.checksum()
	if err != nil {
		return err
	}
	e.Sum = sum
	data, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return fmt.Errorf("sweep: marshal result: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Join(c.dir, "results"), "."+key+".tmp*")
	if err != nil {
		return fmt.Errorf("sweep: %w", err)
	}
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("sweep: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("sweep: %w", err)
	}
	if err := os.Rename(tmp.Name(), c.path(key)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("sweep: %w", err)
	}
	return nil
}

// SnapshotDir returns the job's checkpoint directory: mid-job world snapshots
// of key live under <run dir>/snapshots/<key>/, content-addressed exactly like
// the results, so a restarted sweep resumes each partially-run job from its
// latest barrier instead of from round zero.
func (c *Cache) SnapshotDir(key string) string {
	return filepath.Join(c.dir, "snapshots", key)
}

// Snapshots lists the job's snapshot files newest-first (the fixed-width
// names of exp.SnapshotFileName make lexicographic order round order). A
// missing directory is simply no snapshots.
func (c *Cache) Snapshots(key string) []string {
	dir := c.SnapshotDir(key)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var paths []string
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".snap" {
			paths = append(paths, filepath.Join(dir, e.Name()))
		}
	}
	sort.Sort(sort.Reverse(sort.StringSlice(paths)))
	return paths
}

// DropSnapshots removes the job's snapshot directory. Called once the final
// result is persisted: the mid-job state has nothing left to protect, and a
// completed grid leaves no snapshot litter behind.
func (c *Cache) DropSnapshots(key string) {
	if err := os.RemoveAll(c.SnapshotDir(key)); err != nil {
		c.logf("sweep: dropping snapshots of %s: %v", key, err)
	}
}
