package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// startProfile starts a CPU profile into memory; stop it with
// pprof.StopCPUProfile.
func startProfile() (*bytes.Buffer, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, err
	}
	return &buf, nil
}

// cpuBuckets are the reported CPU-share buckets, named after the module
// they charge (cpu.<bucket>). Samples that land in none go to cpu.other.
var cpuBuckets = []string{
	"runtime_sched", "gc", "sim", "core", "coherence", "cache", "mem", "oracle",
	"workloads", "service", "client", "net_http", "encoding_json",
}

// putProfile records each bucket's share of the profile's CPU time.
func (b *bench) putProfile(buf *bytes.Buffer) error {
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	shares := map[string]float64{}
	var total float64
	for _, s := range p.samples {
		shares[bucketOf(p.stack(s.locs))] += float64(s.value)
		total += float64(s.value)
	}
	known := map[string]bool{}
	for _, bk := range cpuBuckets {
		known[bk] = true
		b.put("cpu."+bk, 100*ratio(shares[bk], total), "%", len(p.samples))
	}
	var other float64
	for bk, v := range shares {
		if !known[bk] {
			other += v
		}
	}
	b.put("cpu.other", 100*ratio(other, total), "%", len(p.samples))
	return nil
}

// bucketOf charges one sampled stack (function names, leaf first).
// Scheduler and GC work are recognised in the run of runtime frames at
// the leaf; any other sample is charged to the nearest frame on the stack
// that belongs to a bucketed package, so runtime helpers such as map
// access or memmove count against the code that called them.
func bucketOf(stack []string) string {
	i := 0
	for i < len(stack) && isRuntime(stack[i]) {
		i++
	}
	leafRuntime := stack[:i]
	for _, f := range leafRuntime {
		if isGC(f) {
			return "gc"
		}
	}
	for _, f := range leafRuntime {
		if isSched(f) {
			return "runtime_sched"
		}
	}
	for _, f := range stack[i:] {
		if bk := packageBucket(f); bk != "" {
			return bk
		}
	}
	return "other"
}

func isRuntime(fn string) bool {
	return strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "internal/runtime/") ||
		strings.HasPrefix(fn, "runtime/internal/")
}

// runtimeName strips the package path from a runtime function name.
func runtimeName(fn string) string {
	if i := strings.LastIndex(fn, "/"); i >= 0 {
		fn = fn[i+1:]
	}
	_, name, _ := strings.Cut(fn, ".")
	return name
}

var schedPrefixes = []string{
	"chan", "select", "send", "recv", "(*waitq)", "schedule", "findRunnable", "park", "gopark",
	"goready", "ready", "wakep", "lock", "unlock", "casgstatus", "casGTo", "mcall", "gogo",
	"futex", "note", "stopm", "startm", "mPark", "runq", "steal", "netpoll", "usleep",
	"osyield", "procyield", "handoffp", "resetspinning", "execute", "goexit", "newproc",
	"sema", "sysmon", "gosched", "Gosched", "acquirep", "releasep",
}

func isSched(fn string) bool {
	name := runtimeName(fn)
	for _, p := range schedPrefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

var gcMarkers = []string{"gc", "GC", "mark", "Mark", "sweep", "scan", "scav", "greyobject", "findObject", "wbBuf", "shade", "finalizer"}

func isGC(fn string) bool {
	name := runtimeName(fn)
	if strings.HasPrefix(name, "malloc") {
		return false // allocation is charged to its caller
	}
	for _, m := range gcMarkers {
		if strings.Contains(name, m) {
			return true
		}
	}
	return false
}

// packageBucket maps a function to its bucket by package, or "".
func packageBucket(fn string) string {
	switch {
	case strings.HasPrefix(fn, "net/http."):
		return "net_http"
	case strings.HasPrefix(fn, "encoding/json."):
		return "encoding_json"
	case strings.HasPrefix(fn, "repro/client."):
		return "client"
	case strings.HasPrefix(fn, "repro/internal/"):
		pkg, _, _ := strings.Cut(strings.TrimPrefix(fn, "repro/internal/"), ".")
		return pkg
	case strings.HasPrefix(fn, "repro."):
		return "asfsim"
	}
	return ""
}

// A minimal reader for the gzipped profile.proto that runtime/pprof
// writes: samples (location IDs and values), locations (function IDs of
// their lines, innermost first), functions (name indices) and the
// string table.

type pbSample struct {
	locs  []uint64
	value int64 // the last sample value: CPU nanoseconds
}

type pbProfile struct {
	samples []pbSample
	locFns  map[uint64][]uint64
	fnName  map[uint64]int64
	strs    []string
}

// stack returns a sample's function names, leaf first.
func (p *pbProfile) stack(locs []uint64) []string {
	var out []string
	for _, l := range locs {
		for _, fid := range p.locFns[l] {
			if si := p.fnName[fid]; si >= 0 && int(si) < len(p.strs) {
				out = append(out, p.strs[si])
			}
		}
	}
	return out
}

func parseProfile(data []byte) (*pbProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p := &pbProfile{locFns: map[uint64][]uint64{}, fnName: map[uint64]int64{}}
	err = eachField(raw, func(num int, v uint64, msg []byte) error {
		switch num {
		case 2: // sample
			var s pbSample
			var vals []uint64
			err := eachField(msg, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					return appendRepeated(&s.locs, v, b)
				case 2:
					return appendRepeated(&vals, v, b)
				}
				return nil
			})
			if len(vals) > 0 {
				s.value = int64(vals[len(vals)-1])
			}
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(msg, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFns[id] = fns
			return err
		case 5: // function
			var id uint64
			name := int64(-1)
			err := eachField(msg, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.fnName[id] = name
			return err
		case 6: // string table
			p.strs = append(p.strs, string(msg))
		}
		return nil
	})
	return p, err
}

var errProto = errors.New("malformed profile")

// eachField walks a protobuf message, calling fn with each field's number
// and either its varint value or its length-delimited bytes.
func eachField(b []byte, fn func(num int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, typ := int(key>>3), key&7
		var v uint64
		var msg []byte
		switch typ {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			msg = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
			continue
		default:
			return errProto
		}
		if err := fn(num, v, msg); err != nil {
			return err
		}
	}
	return nil
}

// appendRepeated appends a repeated varint field, packed (msg) or not.
func appendRepeated(dst *[]uint64, v uint64, msg []byte) error {
	if msg == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(msg) > 0 {
		x, n := binary.Uvarint(msg)
		if n <= 0 {
			return errProto
		}
		*dst = append(*dst, x)
		msg = msg[n:]
	}
	return nil
}
