package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"syscall"
)

// offHeap is an append-only log in memory mapped outside the Go heap.
// What the benchmark keeps through the timed phase (every drawn key and
// every request record) lives here, so its growth does not change how often
// the program's garbage collector runs: the program sees the heap it
// would see without the benchmark in its process.
type offHeap struct {
	mu  sync.Mutex
	buf []byte
	err error // the first append that did not fit
}

// offHeapSize bounds one log, 8 Mi keys of 32 B. Pages are backed by
// memory only as they are written.
const offHeapSize = 256 << 20

func newOffHeap() (*offHeap, error) {
	b, err := syscall.Mmap(-1, 0, offHeapSize, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE|syscall.MAP_NORESERVE)
	if err != nil {
		return nil, fmt.Errorf("mapping a %d MiB log: %w", offHeapSize>>20, err)
	}
	return &offHeap{buf: b[:0]}, nil
}

// add appends p; a log that is full keeps its error for Err.
func (o *offHeap) add(p []byte) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if len(o.buf)+len(p) > cap(o.buf) {
		if o.err == nil {
			o.err = errors.New("off-heap log full: run fewer seconds")
		}
		return
	}
	o.buf = append(o.buf, p...)
}

// addReqs appends request records.
func (o *offHeap) addReqs(v []req) {
	b := make([]byte, 0, 16*len(v))
	for _, r := range v {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(r.at))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(r.ms))
	}
	o.add(b)
}

// bytes returns the log's contents; valid until close or reset.
func (o *offHeap) bytes() ([]byte, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.buf, o.err
}

// takeReqs decodes a log filled by addReqs into the Go heap and empties
// the log.
func (o *offHeap) takeReqs() ([]req, error) {
	b, err := o.bytes()
	v := make([]req, len(b)/16)
	for i := range v {
		v[i].at = math.Float64frombits(binary.LittleEndian.Uint64(b[16*i:]))
		v[i].ms = math.Float64frombits(binary.LittleEndian.Uint64(b[16*i+8:]))
	}
	o.mu.Lock()
	o.buf, o.err = o.buf[:0], nil
	o.mu.Unlock()
	return v, err
}

func (o *offHeap) close() error {
	return syscall.Munmap(o.buf[:cap(o.buf)])
}
