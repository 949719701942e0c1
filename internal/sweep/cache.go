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

// JobResult is the cached outcome of one job: the slice of exp.Result a
// sweep aggregates, in a stable JSON shape. One file per job lives under
// <run dir>/results/<key>.json; because the file is named by the job's
// content address, a restarted sweep can trust any file it finds.
type JobResult struct {
	Key      string `json:"key"`
	Scenario string `json:"scenario"`
	Variant  string `json:"variant"`
	Seed     int64  `json:"seed"`

	// End-of-run health (fractions in [0,1]).
	BiggestCluster float64 `json:"biggest_cluster"`
	StaleFraction  float64 `json:"stale_fraction"`
	CompletionRate float64 `json:"completion_rate"`
	AlivePeers     int     `json:"alive_peers"`
	TotalPeers     int     `json:"total_peers"`

	// Scenario bookkeeping.
	Joins           uint64 `json:"joins"`
	Leaves          uint64 `json:"leaves"`
	GatewayFailures uint64 `json:"gateway_failures"`
	PartitionRounds int    `json:"partition_rounds"`

	// Recovery curve condensed from the series.
	WorstCluster   float64 `json:"worst_cluster"`
	WorstRound     int     `json:"worst_round"`
	RecoveredRound int     `json:"recovered_round"`

	// Series is the periodic health series the per-round bands aggregate.
	Series []SeriesPoint `json:"series"`

	// EventsProcessed pins the run's determinism contract into the cache:
	// re-running the job must reproduce it exactly.
	EventsProcessed uint64 `json:"events_processed"`

	// Adversary block, filled only when the job's scenario declares
	// adversary cohorts. Every field is omitempty so the cached JSON of
	// honest runs stays byte-identical to the pre-adversary format.
	HasAdversaries     bool    `json:"has_adversaries,omitempty"`
	Adversaries        int     `json:"adversaries,omitempty"`
	Colluders          int     `json:"colluders,omitempty"`
	FinalEclipse       float64 `json:"final_eclipse,omitempty"`
	FinalColluderView  float64 `json:"final_colluder_view,omitempty"`
	FinalColluderShare float64 `json:"final_colluder_share,omitempty"`
	TopKShare          float64 `json:"topk_share,omitempty"`
	HonestCluster      float64 `json:"honest_cluster,omitempty"`
	RelayDenied        uint64  `json:"relay_denied,omitempty"`
	AdversaryDrops     uint64  `json:"adversary_drops,omitempty"`

	// Sum is the hex SHA-256 of the result's compact JSON with Sum itself
	// empty. The content address in the file name authenticates which job a
	// file answers for; Sum authenticates the answer — a bit flipped at rest
	// (or a result written by a buggy build that then crashed) turns into a
	// recomputed miss instead of silently skewing the aggregate.
	Sum string `json:"sum,omitempty"`
}

// checksum computes the Sum value of jr: the hex SHA-256 of its compact JSON
// form with the Sum field empty, so the stored value never hashes itself.
func (jr *JobResult) checksum() string {
	saved := jr.Sum
	jr.Sum = ""
	data, err := json.Marshal(jr)
	jr.Sum = saved
	if err != nil {
		panic(fmt.Sprintf("sweep: marshal result: %v", err)) // plain struct, cannot fail
	}
	return hashHex(data)
}

// SeriesPoint is one sampled round in the cached series. The adversary pair
// is omitempty for the same byte-identity reason as JobResult's block.
type SeriesPoint struct {
	Round         int     `json:"round"`
	Alive         int     `json:"alive"`
	Cluster       float64 `json:"cluster"`
	Stale         float64 `json:"stale"`
	Eclipse       float64 `json:"eclipse,omitempty"`
	ColluderShare float64 `json:"colluder_share,omitempty"`
}

// resultOf condenses a run's Result into the cacheable JobResult.
func resultOf(job Job, res exp.Result) *JobResult {
	jr := &JobResult{
		Key:             job.Key,
		Scenario:        job.Scenario,
		Variant:         job.Variant,
		Seed:            job.Seed,
		BiggestCluster:  res.BiggestCluster,
		StaleFraction:   res.StaleFraction,
		CompletionRate:  res.CompletionRate,
		AlivePeers:      res.AlivePeers,
		TotalPeers:      res.TotalPeers,
		Joins:           res.Scenario.Joins,
		Leaves:          res.Scenario.Leaves,
		GatewayFailures: res.Scenario.GatewayFailures,
		PartitionRounds: res.Scenario.PartitionRounds,
		WorstCluster:    res.Recovery.WorstCluster,
		WorstRound:      res.Recovery.WorstRound,
		RecoveredRound:  res.Recovery.RecoveredRound,
		Series:          make([]SeriesPoint, len(res.Series)),
		EventsProcessed: res.EventsProcessed,
	}
	for i, pt := range res.Series {
		jr.Series[i] = SeriesPoint{Round: pt.Round, Alive: pt.AlivePeers, Cluster: pt.BiggestCluster, Stale: pt.StaleFraction}
	}
	if len(job.Cfg.Scenario.AdversaryList()) > 0 {
		jr.HasAdversaries = true
		jr.Adversaries = res.Adversary.AdversaryCount
		jr.Colluders = res.Adversary.ColluderCount
		jr.FinalEclipse = res.Adversary.EclipseFraction
		jr.FinalColluderView = res.Adversary.ColluderViewFraction
		jr.FinalColluderShare = res.Adversary.ColluderIndegreeShare
		jr.TopKShare = res.Adversary.TopKIndegreeShare
		jr.HonestCluster = res.Adversary.HonestCluster
		jr.RelayDenied = res.Adversary.RelayDenied
		jr.AdversaryDrops = res.Adversary.AdversaryDrops
		for i, pt := range res.Series {
			jr.Series[i].Eclipse = pt.Eclipse
			jr.Series[i].ColluderShare = pt.ColluderShare
		}
	}
	return jr
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
func (c *Cache) Load(key string) (*JobResult, bool) {
	data, err := os.ReadFile(c.path(key))
	if err != nil {
		return nil, false
	}
	var jr JobResult
	if err := json.Unmarshal(data, &jr); err != nil || jr.Key != key {
		return nil, false
	}
	if jr.Sum == "" {
		c.logf("sweep: cached result %s has no checksum (old format?), recomputing", key)
		return nil, false
	}
	if sum := jr.checksum(); sum != jr.Sum {
		c.logf("sweep: cached result %s fails its checksum (stored %.12s…, computed %.12s…), recomputing", key, jr.Sum, sum)
		return nil, false
	}
	return &jr, true
}

// Store persists one result atomically (write-temp + rename), so a kill
// mid-write leaves a miss, not a corrupt hit. The result's Sum is (re)stamped
// here: what hits the disk always verifies.
func (c *Cache) Store(jr *JobResult) error {
	jr.Sum = jr.checksum()
	data, err := json.MarshalIndent(jr, "", "  ")
	if err != nil {
		return fmt.Errorf("sweep: marshal result: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Join(c.dir, "results"), "."+jr.Key+".tmp*")
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
	if err := os.Rename(tmp.Name(), c.path(jr.Key)); err != nil {
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
