package peoplesnet

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"reflect"
	"sort"
	"testing"
)

// TestMeasureGoldenDigests pins Measure's §4.3 ownership and §5
// traffic analyses, unexported fields included, to digests recorded
// before the spike baseline became a sliding window and the ownership
// walk became a ledger visitor. Any change to what those kernels
// compute, or to the series and histograms they return, shows here.
func TestMeasureGoldenDigests(t *testing.T) {
	golden := []struct {
		seed               uint64
		traffic, ownership string
	}{
		{1, "800b6ec730ff7d86", "9d8d049426d63278"},
		{2, "a79a253d97055f55", "c98cd63eaa8d479c"},
		{4, "7ae4f7943dd52b1e", "c8052cd84f919677"},
	}
	for _, g := range golden {
		w, err := Simulate(SmallWorld(g.seed))
		if err != nil {
			t.Fatalf("seed %d: %v", g.seed, err)
		}
		st := Measure(w)
		if got := digest(st.Traffic); got != g.traffic {
			t.Errorf("seed %d: Traffic digest %s, want %s", g.seed, got, g.traffic)
		}
		if got := digest(st.Ownership); got != g.ownership {
			t.Errorf("seed %d: Ownership digest %s, want %s", g.seed, got, g.ownership)
		}
	}
}

// digest hashes v structurally: every field, exported or not, through
// pointers, with map entries in key order and floats by their bits.
func digest(v interface{}) string {
	h := sha256.New()
	digestValue(h, reflect.ValueOf(v))
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func digestValue(h hash.Hash, v reflect.Value) {
	var buf [8]byte
	putU := func(u uint64) {
		binary.LittleEndian.PutUint64(buf[:], u)
		h.Write(buf[:])
	}
	h.Write([]byte{byte(v.Kind())})
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			putU(1)
		} else {
			putU(0)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		putU(uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		putU(v.Uint())
	case reflect.Float32, reflect.Float64:
		putU(math.Float64bits(v.Float()))
	case reflect.String:
		putU(uint64(v.Len()))
		h.Write([]byte(v.String()))
	case reflect.Ptr, reflect.Interface:
		if v.IsNil() {
			putU(0)
			return
		}
		putU(1)
		digestValue(h, v.Elem())
	case reflect.Slice, reflect.Array:
		putU(uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			digestValue(h, v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			h.Write([]byte(v.Type().Field(i).Name))
			digestValue(h, v.Field(i))
		}
	case reflect.Map:
		putU(uint64(v.Len()))
		keys := v.MapKeys()
		enc := make([]string, len(keys))
		byEnc := make(map[string]reflect.Value, len(keys))
		for i, k := range keys {
			kh := sha256.New()
			digestValue(kh, k)
			enc[i] = string(kh.Sum(nil))
			byEnc[enc[i]] = k
		}
		sort.Strings(enc)
		for _, e := range enc {
			h.Write([]byte(e))
			digestValue(h, v.MapIndex(byEnc[e]))
		}
	default:
		panic("digest: unsupported kind " + v.Kind().String())
	}
}
