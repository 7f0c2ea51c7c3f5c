package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"reflect"
	"sort"
	"strings"
)

// digest hashes the simulated content of a result value: every
// number, string and flag reachable from v, walked by reflection in a
// fixed order (map entries sorted by their own digest). Host-time
// fields are skipped so the digest is identical at any worker count
// and on any machine: struct fields whose name contains "Wall" (the
// repo's convention for host wall-clock, e.g. FleetResult.CoordWall)
// and the Workers echo of the host-side configuration, as well as
// time.Time and sync values.
func digest(v any) string {
	h := sha256.New()
	d := digester{h: h, seen: map[uintptr]int{}}
	d.value(reflect.ValueOf(v))
	return hex.EncodeToString(h.Sum(nil)[:8])
}

type digester struct {
	h    hash.Hash
	seen map[uintptr]int
	buf  [8]byte
}

func (d *digester) tag(s string) { d.h.Write([]byte(s)) }

func (d *digester) u64(x uint64) {
	binary.LittleEndian.PutUint64(d.buf[:], x)
	d.h.Write(d.buf[:])
}

func skipField(f reflect.StructField) bool {
	return strings.Contains(f.Name, "Wall") || f.Name == "Workers"
}

func skipType(t reflect.Type) bool {
	p := t.PkgPath()
	return (p == "time" && t.Name() == "Time") || p == "sync" || p == "sync/atomic"
}

func (d *digester) value(v reflect.Value) {
	if !v.IsValid() {
		d.tag("nil;")
		return
	}
	if skipType(v.Type()) {
		return
	}
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			d.tag("T")
		} else {
			d.tag("F")
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		d.tag("i")
		d.u64(uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		d.tag("u")
		d.u64(v.Uint())
	case reflect.Float32, reflect.Float64:
		d.tag("f")
		d.u64(math.Float64bits(v.Float()))
	case reflect.Complex64, reflect.Complex128:
		c := v.Complex()
		d.tag("c")
		d.u64(math.Float64bits(real(c)))
		d.u64(math.Float64bits(imag(c)))
	case reflect.String:
		d.tag("s")
		d.u64(uint64(v.Len()))
		d.tag(v.String())
	case reflect.Slice, reflect.Array:
		if v.Kind() == reflect.Slice && v.IsNil() {
			d.tag("nil;")
			return
		}
		d.tag("[")
		d.u64(uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			d.value(v.Index(i))
		}
		d.tag("]")
	case reflect.Map:
		if v.IsNil() {
			d.tag("nil;")
			return
		}
		type entry struct{ k, val string }
		entries := make([]entry, 0, v.Len())
		it := v.MapRange()
		for it.Next() {
			entries = append(entries, entry{sub(it.Key()), sub(it.Value())})
		}
		sort.Slice(entries, func(i, j int) bool { return entries[i].k < entries[j].k })
		d.tag("{")
		for _, e := range entries {
			d.tag(e.k)
			d.tag(e.val)
		}
		d.tag("}")
	case reflect.Pointer:
		if v.IsNil() {
			d.tag("nil;")
			return
		}
		if id, ok := d.seen[v.Pointer()]; ok {
			d.tag("ref")
			d.u64(uint64(id))
			return
		}
		d.seen[v.Pointer()] = len(d.seen)
		d.tag("*")
		d.value(v.Elem())
	case reflect.Interface:
		if v.IsNil() {
			d.tag("nil;")
			return
		}
		d.tag(v.Elem().Type().String())
		d.value(v.Elem())
	case reflect.Struct:
		t := v.Type()
		d.tag(t.Name())
		d.tag("(")
		for i := 0; i < v.NumField(); i++ {
			if skipField(t.Field(i)) {
				continue
			}
			d.tag(t.Field(i).Name)
			d.tag("=")
			d.value(v.Field(i))
		}
		d.tag(")")
	}
	// Func, Chan and UnsafePointer carry no simulated content.
}

// sub digests one map key or value on its own, for sorting.
func sub(v reflect.Value) string {
	h := sha256.New()
	d := digester{h: h, seen: map[uintptr]int{}}
	d.value(v)
	return hex.EncodeToString(h.Sum(nil))
}
