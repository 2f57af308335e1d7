package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// This file decodes the subset of the pprof profile.proto format that
// runtime/pprof writes for CPU profiles: samples with their location
// stacks, values and string labels, locations with their (possibly
// inlined) function lines, the function table and the string table. It
// exists so the benchmark can attribute CPU samples to simulator layers
// with the standard library alone.

// sample is one decoded profile sample: its stack as function names from
// leaf to root (inlined frames expanded, innermost first), how many
// profiler ticks landed on it, their CPU time in nanoseconds, and its
// string labels.
type sample struct {
	stack  []string
	count  int64
	nanos  int64
	labels map[string]string
}

// cpuProfile is a decoded CPU profile.
type cpuProfile struct {
	samples []sample
	// period is the sampling period in nanoseconds.
	period int64
}

// Field numbers of profile.proto messages.
const (
	profSampleType = 1
	profSample     = 2
	profLocation   = 4
	profFunction   = 5
	profStrings    = 6
	profPeriod     = 12

	sampleLocation = 1
	sampleValue    = 2
	sampleLabel    = 3

	labelKey = 1
	labelStr = 2

	locID   = 1
	locLine = 4

	lineFunction = 1

	funcID   = 1
	funcName = 2
)

// decodeProfile parses a gzip-compressed profile as written by
// pprof.StartCPUProfile.
func decodeProfile(raw []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type rawSample struct {
		locs   []uint64
		values []int64
		labels [][2]int64
	}
	var (
		rawSamples  []rawSample
		locLines    = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames   = map[uint64]int64{}    // function id -> string index
		strs        []string
		period      int64
		sampleTypes int
	)
	err = walkFields(data, func(field int, v uint64, b []byte) error {
		switch field {
		case profSampleType:
			sampleTypes++
		case profSample:
			var s rawSample
			err := walkFields(b, func(field int, v uint64, b []byte) error {
				switch field {
				case sampleLocation:
					return appendVarints(&s.locs, v, b)
				case sampleValue:
					var u []uint64
					if err := appendVarints(&u, v, b); err != nil {
						return err
					}
					for _, x := range u {
						s.values = append(s.values, int64(x))
					}
				case sampleLabel:
					var kv [2]int64
					err := walkFields(b, func(field int, v uint64, _ []byte) error {
						switch field {
						case labelKey:
							kv[0] = int64(v)
						case labelStr:
							kv[1] = int64(v)
						}
						return nil
					})
					if err != nil {
						return err
					}
					s.labels = append(s.labels, kv)
				}
				return nil
			})
			if err != nil {
				return err
			}
			rawSamples = append(rawSamples, s)
		case profLocation:
			var id uint64
			var fns []uint64
			err := walkFields(b, func(field int, v uint64, b []byte) error {
				switch field {
				case locID:
					id = v
				case locLine:
					return walkFields(b, func(field int, v uint64, _ []byte) error {
						if field == lineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locLines[id] = fns
		case profFunction:
			var id uint64
			var name int64
			err := walkFields(b, func(field int, v uint64, _ []byte) error {
				switch field {
				case funcID:
					id = v
				case funcName:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcNames[id] = name
		case profStrings:
			strs = append(strs, string(b))
		case profPeriod:
			period = int64(v)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	p := &cpuProfile{period: period}
	for _, rs := range rawSamples {
		// A CPU profile's values are (sample count, cpu nanoseconds);
		// fall back to count × period if only the count is present.
		var s sample
		if len(rs.values) >= 1 {
			s.count = rs.values[0]
			s.nanos = s.count * period
		}
		if sampleTypes >= 2 && len(rs.values) >= 2 {
			s.nanos = rs.values[1]
		}
		for _, loc := range rs.locs {
			for _, fn := range locLines[loc] {
				s.stack = append(s.stack, str(funcNames[fn]))
			}
		}
		if len(rs.labels) > 0 {
			s.labels = map[string]string{}
			for _, kv := range rs.labels {
				s.labels[str(kv[0])] = str(kv[1])
			}
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}

// walkFields calls fn for each field of a protobuf message: varint
// fields carry their value in v, length-delimited fields their payload
// in b. Fixed-width fields are skipped.
func walkFields(data []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("bad field key")
		}
		data = data[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(data)
			if n <= 0 {
				return errors.New("bad varint")
			}
			data = data[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(data) < 8 {
				return errors.New("truncated fixed64")
			}
			data = data[8:]
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errors.New("truncated bytes field")
			}
			b := data[n : n+int(l)]
			data = data[n+int(l):]
			if err := fn(field, 0, b); err != nil {
				return err
			}
		case 5:
			if len(data) < 4 {
				return errors.New("truncated fixed32")
			}
			data = data[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's values, accepting
// both the unpacked form (one value in v) and the packed form (b holds
// concatenated varints).
func appendVarints(dst *[]uint64, v uint64, b []byte) error {
	if b == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
