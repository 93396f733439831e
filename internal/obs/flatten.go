package obs

import (
	"reflect"
	"strings"
	"time"
	"unicode"
)

var durationType = reflect.TypeOf(time.Duration(0))

// Flatten is the one place a layer's counters become the flat
// key/value snapshot that STAT, /metrics and afraidctl all read. It
// adds to dst, under prefix (a layer name with its dot, "core."), every
// counter of reg (nil for none) and every exported field of each struct
// in stats, keyed by KeyName of the field: integers as they are, bools
// as 0/1, durations as nanoseconds under key+"_ns", and integer lists
// as their length plus a bitmask of the values under key+"_mask".
// Fields of any other type are skipped. A layer that grows a counter or
// a stats field therefore edits nothing else.
func Flatten(dst map[string]int64, prefix string, reg *Registry, stats ...any) {
	if reg != nil {
		for name, n := range reg.Counters() {
			dst[prefix+name] = int64(n)
		}
	}
	for _, st := range stats {
		rv := reflect.ValueOf(st)
		for i := 0; i < rv.NumField(); i++ {
			f := rv.Type().Field(i)
			if !f.IsExported() {
				continue
			}
			key, fv := prefix+KeyName(f.Name), rv.Field(i)
			switch {
			case f.Type == durationType:
				dst[key+"_ns"] = fv.Int()
			case fv.CanInt():
				dst[key] = fv.Int()
			case fv.CanUint():
				dst[key] = int64(fv.Uint())
			case fv.Kind() == reflect.Bool:
				dst[key] = 0
				if fv.Bool() {
					dst[key] = 1
				}
			case fv.Kind() == reflect.Slice && fv.Type().Elem().Kind() == reflect.Int:
				var mask int64
				for j := 0; j < fv.Len(); j++ {
					if v := fv.Index(j).Int(); v >= 0 && v < 63 {
						mask |= 1 << v
					}
				}
				dst[key], dst[key+"_mask"] = int64(fv.Len()), mask
			}
		}
	}
}

// KeyName turns a Go field name into its snapshot key: DirtyStripes is
// dirty_stripes, NVRAMRecovered is nvram_recovered.
func KeyName(field string) string {
	var b strings.Builder
	rs := []rune(field)
	for i, r := range rs {
		if unicode.IsUpper(r) && i > 0 &&
			(!unicode.IsUpper(rs[i-1]) || (i+1 < len(rs) && unicode.IsLower(rs[i+1]))) {
			b.WriteByte('_')
		}
		b.WriteRune(unicode.ToLower(r))
	}
	return b.String()
}
