package main

import (
	"bytes"
	"fmt"
	"sync"

	"repro/internal/keystream"
	"repro/internal/service"
)

// streamConfig is the keystream configuration a stream-fed session with
// this spec derives its bytes from.
func streamConfig(spec service.SessionSpec) keystream.Config {
	return keystream.Config{
		Terminals:    spec.Terminals,
		XPerRound:    spec.XPerRound,
		PayloadBytes: spec.PayloadBytes,
		Erasure:      spec.Erasure,
		Seed:         spec.Seed,
		Rotate:       spec.Rotate,
		BlockSize:    spec.StreamBlock,
	}
}

// referenceBlocks derives the given blocks with keystream.ReferenceBlock,
// spread over workers goroutines.
func referenceBlocks(cfg keystream.Config, indices []int64, workers int) ([][]byte, error) {
	out := make([][]byte, len(indices))
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(indices); i += workers {
				out[i] = make([]byte, cfg.BlockSize)
				if err := keystream.ReferenceBlock(cfg, indices[i], out[i]); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// checkSamples compares the kept stream-cold blocks with the reference
// derivation of the same blocks.
func checkSamples(cfg keystream.Config, samples []blockSample, workers int) []string {
	if len(samples) == 0 {
		return nil
	}
	idx := make([]int64, len(samples))
	for i, s := range samples {
		idx[i] = s.index
	}
	ref, err := referenceBlocks(cfg, idx, workers)
	if err != nil {
		return []string{fmt.Sprintf("reference derivation: %v", err)}
	}
	var bad []string
	for i, s := range samples {
		if !bytes.Equal(s.data, ref[i]) {
			bad = append(bad, fmt.Sprintf("stream block %d differs from keystream.ReferenceBlock", s.index))
		}
	}
	return bad
}

// checkKeys proves every drawn key is the stream's bytes at a distinct
// key-aligned offset, and that together the keys cover the consumed
// prefix [0, len(keys)) with no offset handed out twice or skipped. The
// pool is the stream's first sequential consumer, so the prefix is
// derived from offset 0 with keystream.ReferenceBlock.
func checkKeys(cfg keystream.Config, keys []byte, workers int) []string {
	n := len(keys) / keyBytes
	if n == 0 {
		return nil
	}
	bs := cfg.BlockSize
	blocks := (n*keyBytes + bs - 1) / bs
	idx := make([]int64, blocks)
	for i := range idx {
		idx[i] = int64(i)
	}
	ref, err := referenceBlocks(cfg, idx, workers)
	if err != nil {
		return []string{fmt.Sprintf("reference derivation: %v", err)}
	}
	offset := make(map[[keyBytes]byte]int, blocks*bs/keyBytes)
	for b, data := range ref {
		for i := 0; i+keyBytes <= len(data); i += keyBytes {
			offset[[keyBytes]byte(data[i:i+keyBytes])] = (b*bs + i) / keyBytes
		}
	}
	seen := make([]bool, blocks*bs/keyBytes)
	var bad []string
	note := func(format string, args ...any) {
		if len(bad) < 8 {
			bad = append(bad, fmt.Sprintf(format, args...))
		}
	}
	for k := 0; k < n; k++ {
		key := [keyBytes]byte(keys[k*keyBytes : (k+1)*keyBytes])
		slot, ok := offset[key]
		switch {
		case !ok:
			note("drawn key %d is not in the stream prefix", k)
		case seen[slot]:
			note("offset %d handed out twice", slot*keyBytes)
		default:
			seen[slot] = true
		}
	}
	for slot := 0; slot < n; slot++ {
		if !seen[slot] {
			note("offset %d of the consumed prefix was skipped", slot*keyBytes)
		}
	}
	return bad
}
