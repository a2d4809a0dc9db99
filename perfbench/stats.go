package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"reflect"
	"sort"
	"time"
)

// quantile is a nearest-rank percentile together with the number of
// samples it was taken from.
type quantile struct {
	Value time.Duration
	N     int
}

// nearestRank returns the p-th percentile (0 < p <= 100) of samples by
// the nearest-rank rule: the smallest sample such that at least p% of
// all samples are <= it. No interpolation, so the value is always an
// observed sample. An empty input yields the zero quantile.
func nearestRank(samples []time.Duration, p float64) quantile {
	if len(samples) == 0 {
		return quantile{}
	}
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return quantile{Value: sorted[rank-1], N: len(sorted)}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// digest hashes a value's complete contents — unexported fields,
// pointed-to values and map entries (in key-digest order) included —
// so two results can be compared after the objects themselves are
// gone. Pointer identity never enters the hash, only what is pointed
// to; a pointer cycle is hashed once.
func digest(v any) string {
	h := sha256.New()
	d := digester{h: h, seen: map[uintptr]bool{}}
	d.value(reflect.ValueOf(v))
	return hex.EncodeToString(h.Sum(nil))
}

type digester struct {
	h    hash.Hash
	seen map[uintptr]bool
	buf  [8]byte
}

func (d *digester) u64(x uint64) {
	binary.LittleEndian.PutUint64(d.buf[:], x)
	d.h.Write(d.buf[:])
}

func (d *digester) str(s string) {
	d.u64(uint64(len(s)))
	d.h.Write([]byte(s))
}

func (d *digester) value(v reflect.Value) {
	if !v.IsValid() {
		d.u64(0)
		return
	}
	d.u64(uint64(v.Kind()))
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			d.u64(1)
		} else {
			d.u64(0)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		d.u64(uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		d.u64(v.Uint())
	case reflect.Float32, reflect.Float64:
		d.u64(math.Float64bits(v.Float()))
	case reflect.Complex64, reflect.Complex128:
		c := v.Complex()
		d.u64(math.Float64bits(real(c)))
		d.u64(math.Float64bits(imag(c)))
	case reflect.String:
		d.str(v.String())
	case reflect.Array, reflect.Slice:
		if v.Kind() == reflect.Slice && v.IsNil() {
			d.u64(0)
			return
		}
		d.u64(uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			d.value(v.Index(i))
		}
	case reflect.Struct:
		d.str(v.Type().String())
		for i := 0; i < v.NumField(); i++ {
			d.value(v.Field(i))
		}
	case reflect.Pointer:
		if v.IsNil() {
			d.u64(0)
			return
		}
		if d.seen[v.Pointer()] {
			d.u64(1)
			return
		}
		d.seen[v.Pointer()] = true
		d.u64(2)
		d.value(v.Elem())
	case reflect.Interface:
		if v.IsNil() {
			d.u64(0)
			return
		}
		d.str(v.Elem().Type().String())
		d.value(v.Elem())
	case reflect.Map:
		if v.IsNil() {
			d.u64(0)
			return
		}
		// Hash each entry on its own, then feed the entries in order
		// of their key hashes: map iteration order never leaks in.
		type entry struct{ k, kv []byte }
		entries := make([]entry, 0, v.Len())
		iter := v.MapRange()
		for iter.Next() {
			kd := digester{h: sha256.New(), seen: map[uintptr]bool{}}
			kd.value(iter.Key())
			vd := digester{h: sha256.New(), seen: map[uintptr]bool{}}
			vd.value(iter.Value())
			k := kd.h.Sum(nil)
			entries = append(entries, entry{k: k, kv: vd.h.Sum(k)})
		}
		sort.Slice(entries, func(i, j int) bool { return bytes.Compare(entries[i].k, entries[j].k) < 0 })
		d.u64(uint64(len(entries)))
		for _, e := range entries {
			d.h.Write(e.kv)
		}
	default:
		// Funcs, channels and unsafe pointers carry no result data.
		d.str(v.Type().String())
	}
}
