package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math/rand"

	"repro/internal/cost"
	"repro/internal/gen"
	"repro/internal/graph"
)

// reference.json holds what a run reads: the default and held-out seeds,
// the rank-sepdense corpus with its reference cost digests, and the load
// parameters of the serve-* workloads. (baseline.json, which nothing
// reads, records how the numbers were taken.)
//
//go:embed reference.json
var referenceJSON []byte

type reference struct {
	DefaultSeed int64 `json:"default_seed"`
	HeldOutSeed int64 `json:"heldout_seed"`
	// CalibrationMs is calibrate()'s CPU time on the reference host; the
	// CPU times of a run are scaled to it (see calib.go).
	CalibrationMs float64 `json:"calibration_ms"`
	Rank          struct {
		ResultsPerGraph int           `json:"results_per_graph"`
		LatencyLimitMs  float64       `json:"latency_limit_ms"`
		Corpus          []corpusEntry `json:"corpus"`
	} `json:"rank_sepdense"`
	Serve map[string]serveParams `json:"serve"`
}

// corpusEntry is one rank-sepdense graph: ConnectedGNP(Seed, N, P) ranked
// under Cost. Digest is the digest of the first results_per_graph costs of
// the reference solver (monolithic, full re-solve). Costs are invariant
// under relabeling, so the digest checks every relabeled copy.
type corpusEntry struct {
	Seed   int64   `json:"seed"`
	N      int     `json:"n"`
	P      float64 `json:"p"`
	Cost   string  `json:"cost"`
	Digest string  `json:"digest"`
}

// serveParams are the load parameters of a serve-* workload.
type serveParams struct {
	CorpusSeed     int64   `json:"corpus_seed"`
	RatePerS       float64 `json:"rate_per_s"`
	LatencyLimitMs float64 `json:"latency_limit_ms"`
	// Connections caps the load generator's connections (at most nproc).
	Connections int `json:"connections"`
	// WarmupOps is how many ops of the schedule run, checked but untimed,
	// before the measured ones.
	WarmupOps int `json:"warmup_ops"`
}

func loadReference() (*reference, error) {
	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return nil, fmt.Errorf("reference.json: %v", err)
	}
	if len(ref.Rank.Corpus) == 0 || ref.Rank.ResultsPerGraph < 2 || ref.CalibrationMs <= 0 {
		return nil, fmt.Errorf("reference.json: empty rank_sepdense corpus or no calibration_ms")
	}
	return &ref, nil
}

func (e corpusEntry) graph() *graph.Graph {
	return gen.ConnectedGNP(rand.New(rand.NewSource(e.Seed)), e.N, e.P)
}

func costByName(name string) cost.Cost {
	if name == "width" {
		return cost.Width{}
	}
	return cost.FillIn{}
}
