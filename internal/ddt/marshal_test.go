package ddt

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEqualDifferentConstructorPaths(t *testing.T) {
	// contiguous(6, int32) == vector(3, 2, 2, int32): both are 24
	// contiguous bytes.
	a, _ := Contiguous(6, Int32)
	b, _ := Vector(3, 2, 2, Int32)
	if !Equal(a, b) {
		t.Fatal("equivalent constructions compare unequal")
	}
	// A gap changes the typemap.
	c, _ := Vector(3, 2, 3, Int32)
	if Equal(a, c) {
		t.Fatal("strided type equals contiguous")
	}
	// Extent matters even with identical runs.
	r, _ := Resized(a, 32)
	if Equal(a, r) {
		t.Fatal("resized type equals original")
	}
	if !Equal(nil, nil) || Equal(a, nil) {
		t.Fatal("nil handling")
	}
}

func TestEqualPackOrderSensitive(t *testing.T) {
	// Same byte set, different pack order: not transfer-equivalent.
	a, _ := Indexed([]int{1, 1}, []int{0, 2}, Int32)
	b, _ := Indexed([]int{1, 1}, []int{2, 0}, Int32)
	if Equal(a, b) {
		t.Fatal("reordered indexed types compare equal")
	}
}

func TestMarshalRoundtrip(t *testing.T) {
	types := []*Type{
		Int32,
		Float64,
		mustT(Contiguous(10, Float64)),
		mustT(Vector(4, 2, 5, Int32)),
		mustT(Struct([]int{3, 1}, []int64{0, 16}, []*Type{Int32, Float64})),
		mustT(Subarray([]int{8, 8}, []int{3, 4}, []int{1, 2}, Float64)),
		mustT(Resized(mustT(Struct([]int{1}, []int64{0}, []*Type{Int32})), 64)),
	}
	for _, typ := range types {
		data := typ.Marshal()
		got, err := Unmarshal(data)
		if err != nil {
			t.Fatalf("%s: %v", typ.Name(), err)
		}
		if !Equal(typ, got) {
			t.Fatalf("%s: marshalled type not equivalent", typ.Name())
		}
		if got.Name() != typ.Name() {
			t.Fatalf("%s: name lost", typ.Name())
		}
		// The reconstructed type must pack identically.
		count := int64(3)
		src := fill(typ.Span(count))
		a := make([]byte, typ.PackedSize(count))
		b := make([]byte, typ.PackedSize(count))
		typ.Pack(src, count, a)
		got.Pack(src, count, b)
		if !bytes.Equal(a, b) {
			t.Fatalf("%s: reconstructed type packs differently", typ.Name())
		}
	}
}

func mustT(t *Type, err error) *Type {
	if err != nil {
		panic(err)
	}
	return t
}

func TestUnmarshalRejectsCorruption(t *testing.T) {
	typ, _ := Struct([]int{3, 1}, []int64{0, 16}, []*Type{Int32, Float64})
	good := typ.Marshal()
	// Truncations.
	for cut := 0; cut < len(good); cut += 3 {
		if _, err := Unmarshal(good[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	// Bad magic.
	bad := append([]byte{}, good...)
	bad[0] = 'X'
	if _, err := Unmarshal(bad); err == nil {
		t.Fatal("bad magic accepted")
	}
	// Trailing garbage.
	if _, err := Unmarshal(append(append([]byte{}, good...), 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	// Inconsistent size field.
	bad = append([]byte{}, good...)
	bad[4] ^= 0xFF
	if _, err := Unmarshal(bad); err == nil {
		t.Fatal("inconsistent size accepted")
	}
	// A run whose end wraps int64: it would sit below every bound check.
	bad = append([]byte{}, good...)
	run0 := 4 + 3*8 + 4 + len(typ.Name()) + 4
	binary.LittleEndian.PutUint64(bad[run0:], math.MaxInt64-3)
	if _, err := Unmarshal(bad); err == nil {
		t.Fatal("run end past int64 accepted")
	}
}

// Property: random nested types survive marshalling with identical
// transfer behaviour.
func TestMarshalProperty(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		typ := randomType(rng, rng.Intn(3)+1)
		got, err := Unmarshal(typ.Marshal())
		if err != nil {
			return false
		}
		return Equal(typ, got) && got.Contig() == typ.Contig()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
