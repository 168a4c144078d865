package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"
	"time"

	"github.com/symprop/symprop/internal/loadgen"
)

// TestInputsDeterministic pins the benchmark's input contract: the same
// seed gives byte-identical workload inputs (tensors, and for serve-mix the
// arrival schedule too), and a different seed changes them.
func TestInputsDeterministic(t *testing.T) {
	const window = 2 * time.Second
	for _, w := range []string{"hoqri-walmart8", "hooi-school5", serveWorkload} {
		a, err := inputDigest(w, 7, window)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		b, err := inputDigest(w, 7, window)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if a != b {
			t.Errorf("%s: seed 7 generated different inputs twice", w)
		}
		c, err := inputDigest(w, 8, window)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 generated identical inputs", w)
		}
	}
}

// TestParseFactorRoundTrip checks the result-endpoint parser on the
// server's text format.
func TestParseFactorRoundTrip(t *testing.T) {
	u, err := parseFactor([]byte("% symprop factor matrix 2 x 2\n1 0\n0 -0.5e-3\n"))
	if err != nil {
		t.Fatal(err)
	}
	if u.At(0, 0) != 1 || u.At(1, 1) != -0.5e-3 {
		t.Fatalf("parsed %v", u.Data)
	}
	if _, err := parseFactor([]byte("% symprop factor matrix 2 x 2\n1 0\n")); err == nil {
		t.Fatal("truncated factor parsed without error")
	}
}

// inputDigest hashes every input a workload hands the program, so the
// self-test can compare two generations byte for byte.
func inputDigest(workload string, seed int64, window time.Duration) ([32]byte, error) {
	var buf bytes.Buffer
	if w, ok := decomposeWorkloads[workload]; ok {
		x, rank, err := decomposeInput(w, seed)
		if err != nil {
			return [32]byte{}, err
		}
		fmt.Fprintf(&buf, "rank %d\n", rank)
		if err := x.WriteBinary(&buf); err != nil {
			return [32]byte{}, err
		}
		return sha256.Sum256(buf.Bytes()), nil
	}
	in, err := newServeInput(seed, window)
	if err != nil {
		return [32]byte{}, err
	}
	for _, t := range in.tensors {
		buf.WriteString(t)
	}
	if err := loadgen.EncodeSchedule(&buf, in.schedule); err != nil {
		return [32]byte{}, err
	}
	return sha256.Sum256(buf.Bytes()), nil
}
