package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"strconv"

	"github.com/symprop/symprop"
	"github.com/symprop/symprop/internal/spsym"
)

// reference is what a correct decomposition of one workload input ends
// with: the final relative error and the fit ||C||²/||X||².
type reference struct {
	RelError float64 `json:"rel_error"`
	Fit      float64 `json:"fit"`
}

// references.json holds the reference values recorded per workload and
// seed by `go run . --record-refs <first>:<last>`.
//
//go:embed references.json
var referencesJSON []byte

// referenceFor returns the recorded reference for the workload's seed, or,
// for a seed outside the record, computes it the same way the record was
// made: one Decompose call at Workers=1.
func referenceFor(workload string, w decomposeWorkload, x *spsym.Tensor, rank int, seed int64) (reference, string, error) {
	var recorded map[string]map[string]reference
	if err := json.Unmarshal(referencesJSON, &recorded); err != nil {
		return reference{}, "", fmt.Errorf("references.json: %w", err)
	}
	if ref, ok := recorded[workload][strconv.FormatInt(seed, 10)]; ok {
		return ref, "recorded", nil
	}
	ref, err := computeReference(w, x, rank, seed)
	return ref, "computed at Workers=1 (seed not recorded)", err
}

func computeReference(w decomposeWorkload, x *spsym.Tensor, rank int, seed int64) (reference, error) {
	r, err := symprop.Decompose(x, decomposeOptions(w, rank, seed, 1))
	if err != nil {
		return reference{}, fmt.Errorf("reference run: %w", err)
	}
	return reference{RelError: r.FinalRelError(), Fit: r.CoreNormSquared() / r.NormX2}, nil
}

// recordReferences computes the references for seeds first..last of every
// decompose workload, in the references.json layout.
func recordReferences(first, last int64) ([]byte, error) {
	out := map[string]map[string]reference{}
	for name, w := range decomposeWorkloads {
		out[name] = map[string]reference{}
		for seed := first; seed <= last; seed++ {
			x, rank, err := decomposeInput(w, seed)
			if err != nil {
				return nil, err
			}
			ref, err := computeReference(w, x, rank, seed)
			if err != nil {
				return nil, err
			}
			out[name][strconv.FormatInt(seed, 10)] = ref
		}
	}
	return json.MarshalIndent(out, "", "  ")
}
