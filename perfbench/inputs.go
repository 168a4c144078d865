package main

import (
	"fmt"
	"time"

	"github.com/symprop/symprop"
	"github.com/symprop/symprop/internal/bench"
	"github.com/symprop/symprop/internal/hypergraph"
	"github.com/symprop/symprop/internal/loadgen"
	"github.com/symprop/symprop/internal/spsym"
)

// decomposeWorkload is one Decompose sweep workload on a Table III quick
// stand-in (internal/bench ProfileQuick), with random init, a fixed sweep
// count and Tol=0, so every call does the same work.
type decomposeWorkload struct {
	dataset string
	algo    symprop.Algorithm
	sweeps  int
}

// decomposeWorkloads are chosen for the layer split they stress; see
// README.md. Both keep the stand-in's Table III order and rank.
var decomposeWorkloads = map[string]decomposeWorkload{
	// Order 8, dim 2000, 800 IOU non-zeros, rank 10: off the fused-kernel
	// grid and dummy-padded, so S3TTMc dominates.
	"hoqri-walmart8": {dataset: "walmart-trips", algo: symprop.HOQRI, sweeps: 2},
	// Order 5, dim 245, ~2.9k IOU non-zeros, rank 12: the HOOI SVD step
	// (expand, Gram, eigensolver) dominates.
	"hooi-school5": {dataset: "contact-school", algo: symprop.HOOI, sweeps: 2},
}

const serveWorkload = "serve-mix"

// serveRate is the open-loop arrival rate in jobs/s, below the knee
// measured on 2 runners x 1 job worker (README.md).
const serveRate = 40.0

// serveTenants alternate by arrival index.
var serveTenants = [2]string{"tenant-a", "tenant-b"}

func quickSpec(name string) (hypergraph.DatasetSpec, error) {
	for _, d := range bench.ProfileQuick.Datasets() {
		if d.Name == name {
			return d, nil
		}
	}
	return hypergraph.DatasetSpec{}, fmt.Errorf("no quick stand-in named %q", name)
}

// decomposeInput generates the workload's tensor from seed; the result is
// already canonical (hypergraph.ToTensor canonicalizes).
func decomposeInput(w decomposeWorkload, seed int64) (*spsym.Tensor, int, error) {
	spec, err := quickSpec(w.dataset)
	if err != nil {
		return nil, 0, err
	}
	x, err := spec.GenerateTensor(seed)
	if err != nil {
		return nil, 0, fmt.Errorf("generate %s: %w", w.dataset, err)
	}
	return x, spec.Rank, nil
}

// serveInput is everything serve-mix submits: the DefaultMix shapes, one
// inline tensor per shape and the Poisson arrival schedule.
type serveInput struct {
	mix      *loadgen.Mix
	tensors  []string
	schedule []loadgen.Arrival
}

func newServeInput(seed int64, window time.Duration) (*serveInput, error) {
	mix := loadgen.DefaultMix()
	schedule, err := mix.Schedule(serveRate, window, seed)
	if err != nil {
		return nil, err
	}
	tensors, err := mix.Tensors(seed)
	if err != nil {
		return nil, err
	}
	return &serveInput{mix: mix, tensors: tensors, schedule: schedule}, nil
}
