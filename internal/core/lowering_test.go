package core_test

import (
	"fmt"
	"hash/crc32"
	"testing"

	"mpicd/internal/core"
	"mpicd/internal/ddt"
	"mpicd/internal/ddtbench"
	"mpicd/internal/serial"
	"mpicd/internal/ucp"
	"mpicd/internal/workloads"
)

// Two tables that pin what a datatype lowers to: the bytes of its wire
// image and the protocol its messages ride. Both were captured at the
// commit before every datatype was given the one packed-head +
// region-tail state, and a change to how types are lowered must leave
// them alone — or, like a pack-or-region cost model or a change to how
// ucp picks its protocol, change the second one on purpose.

// wireImageCRC is the CRC32C of core.Pack's output: the message's wire
// image, head first, regions after.
func wireImageCRC(t *testing.T, buf any, count core.Count, dt *core.Datatype) (int64, uint32) {
	t.Helper()
	size, err := core.PackedSize(buf, count, dt)
	if err != nil {
		t.Fatalf("PackedSize: %v", err)
	}
	img := make([]byte, size)
	n, err := core.Pack(buf, count, dt, img)
	if err != nil || n != size {
		t.Fatalf("Pack = %d, %v; want %d", n, err, size)
	}
	return size, crc32.Checksum(img, crc32.MakeTable(crc32.Castagnoli))
}

func TestWireImageGolden(t *testing.T) {
	image := func(extent, count int, fill func([]byte, int, int32)) []byte {
		img := make([]byte, extent*count)
		fill(img, count, 7)
		return img
	}
	simple := image(workloads.StructSimpleExtent, 100, workloads.FillStructSimple)
	noGap := image(workloads.StructSimpleNoGapExtent, 100, workloads.FillStructSimpleNoGap)
	vec := image(workloads.StructVecExtent, 3, workloads.FillStructVec)

	kernel := func(name string) (*ddtbench.Instance, []byte) {
		k, err := ddtbench.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		in := k.Instance(1)
		return in, in.NewImage(9)
	}
	luY, luYImg := kernel("NAS_LU_y") // shatters into small runs: pack-shaped
	milc, milcImg := kernel("MILC")   // a few long runs: region-shaped

	cases := []struct {
		name  string
		buf   any
		count core.Count
		dt    *core.Datatype
		size  int64
		crc   uint32
	}{
		{"struct-simple/ddt", simple, 100, core.FromDDT(workloads.StructSimpleType()), 2000, 0xe8c4ccd0},
		{"struct-simple/derive", simple, 100, core.FromDDT(workloads.StructSimpleDerived()), 2000, 0xe8c4ccd0},
		{"struct-simple/custom", simple, 100, workloads.StructSimpleCustom(), 2000, 0xe8c4ccd0},
		{"struct-simple-no-gap/ddt", noGap, 100, core.FromDDT(workloads.StructSimpleNoGapType()), 1600, 0x68d1fe9b},
		{"struct-simple-no-gap/derive", noGap, 100, core.FromDDT(workloads.StructSimpleNoGapDerived()), 1600, 0x68d1fe9b},
		{"struct-simple-no-gap/custom", noGap, 100, workloads.StructSimpleNoGapCustom(), 1600, 0x68d1fe9b},
		{"struct-vec/ddt", vec, 3, core.FromDDT(workloads.StructVecType()), 24636, 0x10ccef6d},
		{"struct-vec/derive", vec, 3, core.FromDDT(workloads.StructVecDerived()), 24636, 0x10ccef6d},
		{"struct-vec/custom", vec, 3, workloads.StructVecCustom(), 24636, 0xc2d2eecf},
		{"double-vec/custom", workloads.NewDoubleVec(8192, 1024, 3), 1, workloads.DoubleVecCustom(), 8264, 0x5e983a52},
		{"ndarray/serial", &serial.Msg{Value: serial.NewFloat64Array(4096, 5)}, 1, serial.ObjectType(), 32805, 0x8951d7fe},
		{"NAS_LU_y/ddt", luYImg, 1, core.FromDDT(luY.Type), int64(luY.Packed), 0xddf0c857},
		{"NAS_LU_y/custom-pack", luYImg, 1, luY.CustomType(ddtbench.MethodCustomPack), int64(luY.Packed), 0xddf0c857},
		{"MILC/ddt", milcImg, 1, core.FromDDT(milc.Type), int64(milc.Packed), 0xbeb99913},
		{"MILC/custom-regions", milcImg, 1, milc.CustomType(ddtbench.MethodCustomRegions), int64(milc.Packed), 0xbeb99913},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			size, crc := wireImageCRC(t, c.buf, c.count, c.dt)
			if size != c.size || crc != c.crc {
				t.Fatalf("wire image = %d bytes, crc32c %#08x; want %d, %#08x", size, crc, c.size, c.crc)
			}
		})
	}
}

// identityHandler is a pure-pack custom handler over a []byte image: no
// state, no regions.
type identityHandler struct{}

func (identityHandler) State(buf any, count core.Count) (any, error) {
	if b, ok := buf.([]byte); !ok || count > int64(len(b)) {
		return nil, fmt.Errorf("identityHandler: bad buffer %T for count %d", buf, count)
	}
	return nil, nil
}
func (identityHandler) FreeState(any) error { return nil }
func (identityHandler) PackedSize(_, _ any, count core.Count) (core.Count, error) {
	return count, nil
}
func (identityHandler) Pack(_, buf any, count, offset core.Count, dst []byte) (core.Count, error) {
	return core.Count(copy(dst, buf.([]byte)[offset:count])), nil
}
func (identityHandler) Unpack(_, buf any, count, offset core.Count, src []byte) error {
	copy(buf.([]byte)[offset:count], src)
	return nil
}
func (identityHandler) RegionCount(_, _ any, _ core.Count) (core.Count, error) { return 0, nil }
func (identityHandler) Regions(_, _ any, _ core.Count, _ [][]byte) error       { return nil }

// TestProtocolSelectionTable sends one message per cell between two
// in-process ranks at the defaults (RndvThresh 32 KiB, a region past a
// message's first charged 16 bytes against it, striping from 256 KiB)
// and reads off which protocol moved it. A cell's size is nominal: whole
// elements, rounded down.
func TestProtocolSelectionTable(t *testing.T) {
	const (
		eager   = "eager"
		rndv    = "rndv/sequential"
		striped = "rndv/striped"
	)
	sizes := []int64{4 << 10, 8<<10 - 64, 8 << 10, 16 << 10, 32<<10 - 64, 32 << 10, 32<<10 + 64, 64 << 10, 256<<10 - 64, 256 << 10, 512 << 10}

	bytesOf := func(size int64) (any, core.Count) { return make([]byte, size), size }
	blocks, err := ddt.Vector(2, 128, 256, ddt.Float64) // two 1 KiB blocks, 1 KiB apart
	if err != nil {
		t.Fatal(err)
	}
	types := []struct {
		name string
		dt   *core.Datatype
		buf  func(size int64) (any, core.Count)
		want []string
	}{
		{"bytes", core.TypeBytes, bytesOf,
			[]string{eager, eager, eager, eager, eager, eager, rndv, rndv, rndv, striped, striped}},
		{"ddt-contiguous", core.FromDDT(workloads.StructSimpleNoGapType()),
			func(size int64) (any, core.Count) {
				return make([]byte, size), size / workloads.StructSimpleNoGapPacked
			},
			[]string{eager, eager, eager, eager, eager, eager, rndv, rndv, rndv, striped, striped}},
		{"ddt-gapped-small-runs", core.FromDDT(workloads.StructSimpleType()),
			func(size int64) (any, core.Count) {
				n := size / workloads.StructSimplePacked
				return make([]byte, n*workloads.StructSimpleExtent), n
			},
			// 20-byte elements: the 256 KiB cell carries 262 140 bytes, below the stripe threshold.
			[]string{eager, eager, eager, eager, eager, eager, rndv, rndv, rndv, rndv, striped}},
		{"ddt-gapped-1KiB-runs", core.FromDDT(blocks),
			func(size int64) (any, core.Count) {
				n := size / blocks.Size()
				return make([]byte, n*blocks.Extent()), n
			},
			[]string{eager, eager, eager, eager, eager, rndv, rndv, rndv, rndv, striped, striped}},
		{"custom-pure-pack", core.TypeCreateCustom(identityHandler{}), bytesOf,
			[]string{eager, eager, eager, eager, eager, eager, rndv, rndv, rndv, striped, striped}},
		// Head and two regions: 32 bytes of charge, so 32 KiB itself goes rndv.
		{"custom-head+2-regions", core.TypeCreateCustom(&regionHandler{packed: 256, nreg: 2}), bytesOf,
			[]string{eager, eager, eager, eager, eager, rndv, rndv, rndv, rndv, striped, striped}},
		// The head is pulled in order, then a tail of 256 KiB or more stripes.
		{"custom-inorder-head+2-regions", core.TypeCreateCustom(&regionHandler{packed: 256, nreg: 2}, core.WithInOrder()), bytesOf,
			[]string{eager, eager, eager, eager, eager, rndv, rndv, rndv, rndv, rndv, striped}},
		// NAS_MG_x's region count: 64 KiB of charge puts every size on rndv.
		{"custom-4096-regions", core.TypeCreateCustom(&regionHandler{nreg: 4096}), bytesOf,
			[]string{rndv, rndv, rndv, rndv, rndv, rndv, rndv, rndv, rndv, striped, striped}},
	}

	sys := core.NewSystem(2, core.Options{UCP: ucp.Config{PullStripes: 2}})
	defer sys.Close()
	tx, rx := sys.Comm(0).Worker().Stats(), sys.Comm(1).Worker().Stats()
	for _, ty := range types {
		for i, size := range sizes {
			t.Run(fmt.Sprintf("%s/%d", ty.name, size), func(t *testing.T) {
				sbuf, count := ty.buf(size)
				rbuf, _ := ty.buf(size)
				e0, r0 := tx.EagerSends.Load(), tx.RndvSends.Load()
				st0, sq0 := rx.StripedPulls.Load(), rx.SequentialPulls.Load()
				done := make(chan error, 1)
				go func() {
					_, err := sys.Comm(1).Recv(rbuf, count, ty.dt, 0, 5)
					done <- err
				}()
				if err := sys.Comm(0).Send(sbuf, count, ty.dt, 1, 5); err != nil {
					t.Fatal(err)
				}
				if err := <-done; err != nil {
					t.Fatal(err)
				}
				d := [4]int64{tx.EagerSends.Load() - e0, tx.RndvSends.Load() - r0,
					rx.StripedPulls.Load() - st0, rx.SequentialPulls.Load() - sq0}
				got := fmt.Sprint(d)
				switch d {
				case [4]int64{1, 0, 0, 0}:
					got = eager
				case [4]int64{0, 1, 0, 1}:
					got = rndv
				case [4]int64{0, 1, 1, 0}:
					got = striped
				}
				if got != ty.want[i] {
					t.Fatalf("%s at %d bytes went %s, want %s", ty.name, size, got, ty.want[i])
				}
			})
		}
	}
}
