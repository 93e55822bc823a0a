package engine

import (
	"reflect"
	"testing"

	"github.com/pod-dedup/pod/internal/stats"
)

func TestStatsMergeAggregatesShards(t *testing.T) {
	a, b := NewStats(), NewStats()
	a.Writes, b.Writes = 10, 5
	a.ChunksDeduped, b.ChunksDeduped = 7, 3
	a.CacheHits, b.CacheHits = 2, 8
	a.NVRAMPeakBytes, b.NVRAMPeakBytes = 100, 250
	a.WriteRT.Add(1000)
	b.WriteRT.Add(3000)
	b.ReadRT.Add(500)

	a.Merge(b)

	if a.Writes != 15 || a.ChunksDeduped != 10 || a.CacheHits != 10 {
		t.Fatalf("scalar merge wrong: %+v", a)
	}
	// NVRAMPeakBytes is a high-water mark but sums across shards: each
	// shard owns an independent journal device, so aggregate peak
	// footprint is the sum of the shard peaks.
	if a.NVRAMPeakBytes != 350 {
		t.Fatalf("NVRAMPeakBytes = %d, want 350", a.NVRAMPeakBytes)
	}
	if a.WriteRT.N() != 2 || a.WriteRT.Sum() != 4000 || a.ReadRT.N() != 1 {
		t.Fatalf("histogram merge wrong: %+v", a)
	}
}

func TestStatsMergeIntoZeroIsIdentity(t *testing.T) {
	src := NewStats()
	src.Reads, src.Writes = 4, 9
	src.WritesRemoved = 3
	src.ReadRT.Add(123)
	src.WriteRT.Add(456)

	dst := NewStats()
	dst.Merge(src)
	if !reflect.DeepEqual(dst, src) {
		t.Fatalf("zero+src != src:\n dst=%+v\n src=%+v", dst, src)
	}
}

// Every field of Stats must aggregate across shards. Reflection fills
// each integer field of two Stats with distinct values; after Merge
// every field must hold the sum and both histograms the union. A field
// added to Stats without a line in Merge fails here.
func TestStatsMergeCoversEveryField(t *testing.T) {
	a, b := NewStats(), NewStats()
	av, bv := reflect.ValueOf(a).Elem(), reflect.ValueOf(b).Elem()
	want := make(map[string]int64)
	for i := 0; i < av.NumField(); i++ {
		name := av.Type().Field(i).Name
		switch f := av.Field(i); f.Kind() {
		case reflect.Int64:
			x, y := int64(100*(i+1)), int64(i+1)
			f.SetInt(x)
			bv.Field(i).SetInt(y)
			want[name] = x + y
		case reflect.Ptr:
			if _, ok := f.Interface().(*stats.Histogram); !ok {
				t.Fatalf("field %s: unexpected pointer type %v", name, f.Type())
			}
			f.Interface().(*stats.Histogram).Add(int64(10 * (i + 1)))
			bv.Field(i).Interface().(*stats.Histogram).Add(int64(i + 1))
			want[name] = int64(11 * (i + 1))
		default:
			t.Fatalf("field %s has kind %v: teach Merge and this test how it aggregates", name, f.Kind())
		}
	}
	a.Merge(b)
	for i := 0; i < av.NumField(); i++ {
		name := av.Type().Field(i).Name
		var got int64
		if h, ok := av.Field(i).Interface().(*stats.Histogram); ok {
			if h.N() != 2 {
				t.Errorf("%s: merged N = %d, want 2", name, h.N())
			}
			got = h.Sum()
		} else {
			got = av.Field(i).Int()
		}
		if got != want[name] {
			t.Errorf("%s = %d after Merge, want %d", name, got, want[name])
		}
	}
}
