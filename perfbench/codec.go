package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"

	"repro/internal/engine"
	"repro/internal/trace"
)

// recoverDatasets times reading back each dataset a round saved at paths
// (the `simcloud -in` path), one recovery op per dataset, and checks that
// each renders the figures it rendered before it was saved, want[i]. Only
// the reads are timed; it returns each read's wall time in milliseconds.
func recoverDatasets(paths []string, want [][]byte, tr *tracer) ([]float64, error) {
	reads := make([]float64, 0, len(paths))
	for i, path := range paths {
		runtime.GC()
		start := now()
		id := tr.begin("trace.decode", tr.newOp(), -1)
		ds, err := readDataset(path)
		tr.end(id)
		reads = append(reads, ms(since(start)))
		if err != nil {
			return nil, err
		}
		fig, err := figures(ds, nil, -1, -1)
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(fig, want[i]) {
			return nil, fmt.Errorf("check: %s renders different figures after the JSON round trip", filepath.Base(path))
		}
	}
	return reads, nil
}

// writeDataset writes ds to path as `simcloud -out` does.
func writeDataset(path string, ds *trace.Dataset) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := ds.WriteJSON(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readDataset(path string) (*trace.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return trace.ReadJSON(bufio.NewReader(f))
}

// sameSample compares two samples bit for bit, so NaN matches NaN.
func sameSample(a, b engine.Sample) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		w, ok := b[k]
		if !ok || math.Float64bits(v) != math.Float64bits(w) {
			return false
		}
	}
	return true
}
