package main

import (
	"bytes"
	"fmt"
	"time"
	"unsafe"

	"mpicd/internal/core"
	"mpicd/internal/ddt"
	"mpicd/internal/ddtbench"
	"mpicd/internal/serial"
	"mpicd/internal/workloads"
	"mpicd/mpi"
)

// A cell is one (method, payload shape, size) combination. Each rank opens
// its own endpoint of the cell: a pool of send buffers, a pool of receive
// buffers, and the method's way of moving one slot of the pool. Both ranks
// fill their send buffers from the same seed, so a rank's own send image is
// also the image it expects to receive.

// endpoint is one rank's half of a cell.
type endpoint interface {
	Send(c *core.Comm, slot, peer, tag int) error
	Recv(c *core.Comm, slot, peer, tag int) error
	// Clear wipes the slot's receive buffer so a stale image cannot pass.
	Clear(slot int)
	// Check compares the slot's received payload with the expected image.
	Check(slot int) error
}

// asyncEndpoint is an endpoint whose method is a single datatype message,
// so it can be posted without blocking (pipelined windows, halo steps).
type asyncEndpoint interface {
	endpoint
	Isend(c *core.Comm, slot, peer, tag int) (*core.Request, error)
	Irecv(c *core.Comm, slot, peer, tag int) (*core.Request, error)
	// Landed finishes a receive posted with Irecv (decoding, if any).
	Landed(slot int) error
}

// cellSpec describes a cell before any rank has opened it.
type cellSpec struct {
	Name   string // method/shape/size
	Method string
	Shape  string
	Bytes  int64 // useful payload bytes per message
	Slots  int
	// Image is the bytes one slot occupies in memory on one side.
	Image int64
	// Custom marks custom-datatype methods: they feed core.packed_share.
	Custom bool
	// Kernel names the DDTBench kernel, for core.auto_vs_best_min.
	Kernel string
	open   func(env *cellEnv, spec *cellSpec) (endpoint, error)
}

// cellEnv is what a rank shares between its endpoints: the seed, and image
// pools that cells of the same shape and size reuse (one op is in flight at
// a time, so methods can take turns on the same memory).
type cellEnv struct {
	rank   int
	seed   int64
	pools  map[string][][]byte
	packA  []byte
	packB  []byte
	flipAt string // cell name whose expected image gets one byte flipped

	// sends and recvs say which halves of the cell being opened this rank
	// plays: a window flows one way, so rank 0 needs no receive pool for it
	// and rank 1 no send pool. Set by openRank before each open.
	sends, recvs bool
}

func newCellEnv(rank int, seed int64, flipAt string) *cellEnv {
	return &cellEnv{rank: rank, seed: seed, pools: map[string][][]byte{}, flipAt: flipAt}
}

// pool returns the named pool of n images of size bytes, creating and
// filling it on first use.
func (e *cellEnv) pool(key string, n int, size int64, fill func(slot int, img []byte)) [][]byte {
	if p, ok := e.pools[key]; ok && len(p) >= n {
		return p[:n]
	}
	p := make([][]byte, n)
	for i := range p {
		p[i] = make([]byte, size)
		if fill != nil {
			fill(i, p[i])
		}
	}
	e.pools[key] = p
	return p
}

// scratch returns two buffers of n bytes for packed-view comparisons.
func (e *cellEnv) scratch(n int64) ([]byte, []byte) {
	if int64(len(e.packA)) < n {
		e.packA = make([]byte, n)
		e.packB = make([]byte, n)
	}
	return e.packA[:n], e.packB[:n]
}

// slotSeed derives the fill seed of one slot of one shape from the run seed.
func (e *cellEnv) slotSeed(shape string, slot int) int32 {
	h := uint64(e.seed)*0x9E3779B97F4A7C15 + uint64(slot)*0xBF58476D1CE4E5B9
	for _, c := range shape {
		h = (h ^ uint64(c)) * 0x100000001B3
	}
	return int32(h>>33) & 0x3FFFFFFF
}

// fillRandom writes a seeded xorshift stream.
func fillRandom(b []byte, seed int32) {
	x := uint64(seed)*2685821657736338717 + 88172645463325252
	for i := 0; i+8 <= len(b); i += 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		*(*uint64)(unsafe.Pointer(&b[i])) = x
	}
	for i := len(b) &^ 7; i < len(b); i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		b[i] = byte(x)
	}
}

func clearBytes(b []byte) {
	for i := range b {
		b[i] = 0
	}
}

// ---------------------------------------------------------------------------
// image shapes: C-layout byte images with a packed view

// shapeDef is a fixed-layout element type: how to fill count elements, and a
// hand-written pack loop that extracts the bytes a transfer must carry (the
// comparison view: gaps are not transferred and must not be compared).
type shapeDef struct {
	name   string
	extent int
	packed int
	fill   func(img []byte, count int, seed int32)
	pack   func(img []byte, count int, dst []byte) int
	unpack func(src, img []byte, count int)
}

var (
	shapeBytes = shapeDef{
		name: "bytes", extent: 1, packed: 1,
		fill:   func(img []byte, _ int, seed int32) { fillRandom(img, seed) },
		pack:   func(img []byte, count int, dst []byte) int { return copy(dst, img[:count]) },
		unpack: func(src, img []byte, count int) { copy(img[:count], src) },
	}
	shapeStructSimple = shapeDef{
		name: "struct-simple", extent: workloads.StructSimpleExtent, packed: workloads.StructSimplePacked,
		fill: workloads.FillStructSimple, pack: workloads.PackStructSimple, unpack: workloads.UnpackStructSimple,
	}
	shapeStructNoGap = shapeDef{
		name: "struct-simple-no-gap", extent: workloads.StructSimpleNoGapExtent, packed: workloads.StructSimpleNoGapPacked,
		fill: workloads.FillStructSimpleNoGap, pack: workloads.PackStructSimpleNoGap, unpack: workloads.UnpackStructSimpleNoGap,
	}
	shapeStructVec = shapeDef{
		name: "struct-vec", extent: workloads.StructVecExtent, packed: workloads.StructVecPacked,
		fill: workloads.FillStructVec, pack: workloads.PackStructVec, unpack: workloads.UnpackStructVec,
	}
)

// haloShape is train-step's halo face: blocks of blockLen int64 every stride
// int64, one element per message (workloads.RunTrainingLoop's vector type).
func haloShape(blocks, blockLen, stride int) shapeDef {
	walk := func(visit func(off, n int)) {
		for b := 0; b < blocks; b++ {
			visit(b*stride*8, blockLen*8)
		}
	}
	return shapeDef{
		name:   fmt.Sprintf("halo-%dx%d-stride%d", blocks, blockLen, stride),
		extent: ((blocks-1)*stride + blockLen) * 8,
		packed: blocks * blockLen * 8,
		fill:   func(img []byte, _ int, seed int32) { fillRandom(img, seed) },
		pack: func(img []byte, _ int, dst []byte) int {
			w := 0
			walk(func(off, n int) { w += copy(dst[w:], img[off:off+n]) })
			return w
		},
		unpack: func(src, img []byte, _ int) {
			r := 0
			walk(func(off, n int) { r += copy(img[off:off+n], src[r:r+n]) })
		},
	}
}

// sizeName renders a payload size the way the cell tables do.
func sizeName(n int64) string {
	switch {
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dMiB", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dKiB", n>>10)
	}
	return fmt.Sprintf("%dB", n)
}

// poolSlots is how many images of imageBytes a bandwidth cell rotates over:
// enough that one side's pool is at least 8 per-core L2 caches (16 MiB at
// the 2 MiB L2 of the baseline host), so both sides together exceed 32 MiB
// and a "bandwidth" is never an L2-resident number by accident.
const poolSideBytes = 16 << 20

func poolSlots(imageBytes int64) int {
	n := int((poolSideBytes + imageBytes - 1) / imageBytes)
	if n < 4 {
		n = 4
	}
	return n
}

// ---------------------------------------------------------------------------
// datatype endpoints: one message per op through a *core.Datatype

type dtEndpoint struct {
	dt    *core.Datatype
	count core.Count
	out   []any
	in    []any
	clear func(slot int)
	check func(slot int) error
}

func (e *dtEndpoint) Send(c *core.Comm, slot, peer, tag int) error {
	return c.Send(e.out[slot], e.count, e.dt, peer, tag)
}

func (e *dtEndpoint) Recv(c *core.Comm, slot, peer, tag int) error {
	_, err := c.Recv(e.in[slot], e.count, e.dt, peer, tag)
	return err
}

func (e *dtEndpoint) Isend(c *core.Comm, slot, peer, tag int) (*core.Request, error) {
	return c.Isend(e.out[slot], e.count, e.dt, peer, tag)
}

func (e *dtEndpoint) Irecv(c *core.Comm, slot, peer, tag int) (*core.Request, error) {
	return c.Irecv(e.in[slot], e.count, e.dt, peer, tag)
}

func (e *dtEndpoint) Landed(int) error     { return nil }
func (e *dtEndpoint) Clear(slot int)       { e.clear(slot) }
func (e *dtEndpoint) Check(slot int) error { return e.check(slot) }

// imagePools opens the pools of (shape, count) this rank needs and returns
// them with the clear and check functions of the packed view. A rank that
// only receives regenerates the expected image when it checks.
func imagePools(env *cellEnv, spec *cellSpec, sh shapeDef, count int) (src, dst [][]byte, clear func(int), check func(int) error) {
	size := int64(count * sh.extent)
	key := fmt.Sprintf("%s/%d", sh.name, count)
	fill := func(slot int, img []byte) { sh.fill(img, count, env.slotSeed(sh.name, slot)) }
	if env.sends {
		src = env.pool("src/"+key, spec.Slots, size, fill)
	}
	if !env.recvs {
		return src, nil, func(int) {}, func(int) error { return nil }
	}
	dst = env.pool("dst/"+key, spec.Slots, size, nil)
	flip := env.flipAt == spec.Name
	clear = func(slot int) { clearBytes(dst[slot]) }
	check = func(slot int) error {
		a, b := env.scratch(int64(count * sh.packed))
		sh.pack(dst[slot], count, a)
		if src != nil {
			sh.pack(src[slot], count, b)
		} else {
			want := env.pool("want/"+key, 1, size, nil)[0]
			fill(slot, want)
			sh.pack(want, count, b)
		}
		if flip && slot == 0 {
			// One byte of the expected image flipped: the run must fail.
			b[0] ^= 0x40
		}
		if !bytes.Equal(a, b) {
			return fmt.Errorf("%s slot %d: received payload differs from the expected image", spec.Name, slot)
		}
		return nil
	}
	return src, dst, clear, check
}

func anySlice(imgs [][]byte) []any {
	out := make([]any, len(imgs))
	for i, b := range imgs {
		out[i] = b
	}
	return out
}

// imageSpec names a cell that moves count elements of a shape; the method's
// constructor adds how a rank opens it.
func imageSpec(method string, sh shapeDef, count, slots int, custom bool) *cellSpec {
	payload := int64(count * sh.packed)
	return &cellSpec{
		Name:   fmt.Sprintf("%s/%s/%s", method, sh.name, sizeName(roundSize(payload))),
		Method: method, Shape: sh.name, Bytes: payload, Slots: slots,
		Image: int64(count * sh.extent), Custom: custom,
	}
}

// imageCell moves the elements with one datatype message. dt builds
// (commits) the datatype when a rank opens the cell.
func imageCell(method string, sh shapeDef, count, slots int, custom bool, dt func() *core.Datatype) *cellSpec {
	spec := imageSpec(method, sh, count, slots, custom)
	spec.open = func(env *cellEnv, spec *cellSpec) (endpoint, error) {
		src, dst, clear, check := imagePools(env, spec, sh, count)
		return &dtEndpoint{dt: dt(), count: core.Count(count), out: anySlice(src), in: anySlice(dst), clear: clear, check: check}, nil
	}
	return spec
}

// roundSize names a payload by the nearest power of two at or above it, so
// 13107 struct-simple elements (262140 B) read as the 256 KiB cell.
func roundSize(n int64) int64 {
	p := int64(1)
	for p < n {
		p <<= 1
	}
	if p-n <= p/16 {
		return p
	}
	return n
}

func bytesCell(size int64, slots int) *cellSpec {
	return imageCell("bytes", shapeBytes, int(size), slots, false, func() *core.Datatype { return core.TypeBytes })
}

func ddtCell(sh shapeDef, typ func() *ddt.Type, count, slots int) *cellSpec {
	return imageCell("ddt", sh, count, slots, false, func() *core.Datatype { return core.FromDDT(typ()) })
}

func customCell(sh shapeDef, dt func() *core.Datatype, count, slots int) *cellSpec {
	return imageCell("custom", sh, count, slots, true, dt)
}

// elemsFor is how many elements of sh come closest to size payload bytes
// without exceeding it.
func elemsFor(sh shapeDef, size int64) int {
	n := int(size) / sh.packed
	if n < 1 {
		n = 1
	}
	return n
}

// deriveEndpoint moves []workloads.StructSimpleGo through the typed facade
// (mpi.SendSlice / RecvSlice): the cells that show what mpi adds to core.
type deriveEndpoint struct {
	dtEndpoint
	outT [][]workloads.StructSimpleGo
	inT  [][]workloads.StructSimpleGo
}

func (e *deriveEndpoint) Send(c *core.Comm, slot, peer, tag int) error {
	return mpi.SendSlice(c, e.outT[slot], peer, tag)
}

func (e *deriveEndpoint) Recv(c *core.Comm, slot, peer, tag int) error {
	_, err := mpi.RecvSlice(c, e.inT[slot], peer, tag)
	return err
}

func structSimpleView(img []byte, count int) []workloads.StructSimpleGo {
	return unsafe.Slice((*workloads.StructSimpleGo)(unsafe.Pointer(unsafe.SliceData(img))), count)
}

func deriveCell(count, slots int) *cellSpec {
	spec := imageSpec("derive", shapeStructSimple, count, slots, false)
	spec.open = func(env *cellEnv, spec *cellSpec) (endpoint, error) {
		src, dst, clear, check := imagePools(env, spec, shapeStructSimple, count)
		dt, err := mpi.DatatypeOf[workloads.StructSimpleGo]()
		if err != nil {
			return nil, err
		}
		ep := &deriveEndpoint{}
		ep.dtEndpoint = dtEndpoint{dt: dt, count: core.Count(count), out: anySlice(src), in: anySlice(dst), clear: clear, check: check}
		for _, img := range src {
			ep.outT = append(ep.outT, structSimpleView(img, count))
		}
		for _, img := range dst {
			ep.inT = append(ep.inT, structSimpleView(img, count))
		}
		return ep, nil
	}
	return spec
}

// manualEndpoint is the paper's manual-pack method: a hand-written loop
// packs into a contiguous scratch buffer that travels as bytes, and the
// receiver unpacks with the mirror loop. Both loops are inside the timed op.
type manualEndpoint struct {
	sh       shapeDef
	count    int
	out, in  [][]byte
	sbuf     []byte
	rbuf     []byte
	clear    func(int)
	check    func(int) error
	payloadN core.Count
}

func (e *manualEndpoint) Send(c *core.Comm, slot, peer, tag int) error {
	e.sh.pack(e.out[slot], e.count, e.sbuf)
	return c.Send(e.sbuf, e.payloadN, core.TypeBytes, peer, tag)
}

func (e *manualEndpoint) Recv(c *core.Comm, slot, peer, tag int) error {
	if _, err := c.Recv(e.rbuf, e.payloadN, core.TypeBytes, peer, tag); err != nil {
		return err
	}
	e.sh.unpack(e.rbuf, e.in[slot], e.count)
	return nil
}

func (e *manualEndpoint) Clear(slot int)       { e.clear(slot) }
func (e *manualEndpoint) Check(slot int) error { return e.check(slot) }

func manualCell(sh shapeDef, count, slots int) *cellSpec {
	spec := imageSpec("manual-pack", sh, count, slots, false)
	spec.open = func(env *cellEnv, spec *cellSpec) (endpoint, error) {
		src, dst, clear, check := imagePools(env, spec, sh, count)
		n := count * sh.packed
		return &manualEndpoint{sh: sh, count: count, out: src, in: dst,
			sbuf: make([]byte, n), rbuf: make([]byte, n), clear: clear, check: check, payloadN: core.Count(n)}, nil
	}
	return spec
}

// ---------------------------------------------------------------------------
// DDTBench kernels

// kernelCell moves one DDTBench exchange at the given scale with the named
// Figure 10 method (mpi-ddt, custom-pack or custom-regions).
func kernelCell(kernel string, scale int, m ddtbench.Method) *cellSpec {
	k, err := ddtbench.ByName(kernel)
	if err != nil {
		panic(err)
	}
	in := k.Instance(scale)
	method := string(m)
	if m == ddtbench.MethodDDT {
		method = "ddt"
	}
	return &cellSpec{
		Name:   fmt.Sprintf("%s/%s/scale%d", method, kernel, scale),
		Method: method, Shape: kernel, Bytes: int64(in.Packed), Slots: poolSlots(int64(in.ImageLen)),
		Image: int64(in.ImageLen), Custom: m != ddtbench.MethodDDT, Kernel: kernel,
		open: func(env *cellEnv, spec *cellSpec) (endpoint, error) {
			key := fmt.Sprintf("%s/scale%d", kernel, scale)
			image := func(slot int) []byte { return in.NewImage(byte(env.slotSeed(kernel, slot))) }
			var src, dst [][]byte
			if env.sends {
				src = env.pool("src/"+key, spec.Slots, int64(in.ImageLen), func(slot int, img []byte) { copy(img, image(slot)) })
			}
			if env.recvs {
				dst = env.pool("dst/"+key, spec.Slots, int64(in.ImageLen), nil)
			}
			var dt *core.Datatype
			if m == ddtbench.MethodDDT {
				dt = core.FromDDT(in.Type)
			} else {
				dt = in.CustomType(m)
			}
			flip := env.flipAt == spec.Name
			return &dtEndpoint{dt: dt, count: 1, out: anySlice(src), in: anySlice(dst),
				clear: func(slot int) {
					if dst != nil {
						clearBytes(dst[slot])
					}
				},
				check: func(slot int) error {
					if dst == nil {
						return nil
					}
					want := image(slot)
					if flip && slot == 0 {
						want[in.Ranges()[0].Off] ^= 0x40
					}
					if !in.PackedEqual(dst[slot], want) {
						return fmt.Errorf("%s slot %d: received exchange differs from the expected image", spec.Name, slot)
					}
					return nil
				}}, nil
		},
	}
}

// ---------------------------------------------------------------------------
// double-vec (Vec<Vec<i32>>): a header in the packed part, one region per
// sub-vector, receive side allocated from the unpacked header

func doubleVecCell(total, subvec, slots int) *cellSpec {
	shape := fmt.Sprintf("double-vec-%s", sizeName(int64(subvec)))
	return &cellSpec{
		Name:   fmt.Sprintf("custom/%s/%s", shape, sizeName(int64(total))),
		Method: "custom", Shape: shape, Bytes: int64(total), Slots: slots, Image: int64(total), Custom: true,
		open: func(env *cellEnv, spec *cellSpec) (endpoint, error) {
			ep := &dtEndpoint{dt: workloads.DoubleVecCustom(), count: 1}
			vecs := func(slot int) [][]byte {
				return workloads.NewDoubleVec(total, subvec, byte(env.slotSeed(shape, slot)))
			}
			in := make([]*[][]byte, spec.Slots)
			for i := range in {
				if env.sends {
					ep.out = append(ep.out, vecs(i))
				}
				in[i] = new([][]byte)
				ep.in = append(ep.in, in[i])
			}
			flip := env.flipAt == spec.Name
			ep.clear = func(slot int) { *in[slot] = nil }
			ep.check = func(slot int) error {
				if !env.recvs {
					return nil
				}
				got, want := *in[slot], vecs(slot)
				if len(got) != len(want) {
					return fmt.Errorf("%s slot %d: %d sub-vectors, want %d", spec.Name, slot, len(got), len(want))
				}
				for i := range want {
					if !bytes.Equal(got[i], want[i]) || (flip && slot == 0 && i == 0) {
						return fmt.Errorf("%s slot %d: sub-vector %d differs", spec.Name, slot, i)
					}
				}
				return nil
			}
			return ep, nil
		},
	}
}

// ---------------------------------------------------------------------------
// serialized objects (Figures 8 and 9)

const pickleArrayBytes = 128 << 10

// pickleObject builds the object of one slot: a single NDArray (Fig 8) or a
// dict holding a list of 128 KiB arrays that sum to size (Fig 9).
func pickleObject(complex bool, size int, seed byte) any {
	if !complex {
		return serial.NewFloat64Array(size/8, seed)
	}
	arrays, per := size/pickleArrayBytes, pickleArrayBytes
	if arrays == 0 {
		arrays, per = 1, size
	}
	list := make([]any, arrays)
	for i := range list {
		list[i] = serial.NewFloat64Array(per/8, seed+byte(i))
	}
	return map[string]any{"arrays": list, "meta": "complex-object", "step": int64(7)}
}

type pickleEndpoint struct {
	name   string
	method string
	object func(slot int) any // builds the slot's object from the seed
	out    []any              // nil on a rank that only receives
	in     []any
	msgs   []serial.Msg
	dt     *core.Datatype
	flip   bool
}

func (e *pickleEndpoint) Send(c *core.Comm, slot, peer, tag int) error {
	switch e.method {
	case "basic":
		return serial.SendBasic(c, e.out[slot], peer, tag)
	case "oob":
		return serial.SendOOB(c, e.out[slot], peer, tag, serial.DefaultThreshold)
	default:
		return serial.SendCDT(c, e.out[slot], peer, tag, serial.DefaultThreshold)
	}
}

func (e *pickleEndpoint) Recv(c *core.Comm, slot, peer, tag int) (err error) {
	switch e.method {
	case "basic":
		e.in[slot], err = serial.RecvBasic(c, peer, tag)
	case "oob":
		e.in[slot], err = serial.RecvOOB(c, peer, tag)
	default:
		e.in[slot], err = serial.RecvCDT(c, peer, tag)
	}
	return err
}

func (e *pickleEndpoint) Clear(slot int) { e.in[slot] = nil }

// Check is the round-trip equality of package serial: the received object
// must serialize to the same canonical stream as the one that was sent.
func (e *pickleEndpoint) Check(slot int) error {
	want, err := serial.Dumps(e.object(slot))
	if err != nil {
		return err
	}
	if e.in[slot] == nil {
		return fmt.Errorf("%s slot %d: nothing received", e.name, slot)
	}
	got, err := serial.Dumps(e.in[slot])
	if err != nil {
		return err
	}
	if e.flip && slot == 0 {
		want[len(want)-1] ^= 0x40
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("%s slot %d: received object differs from the one sent", e.name, slot)
	}
	return nil
}

// pickleAsync is the oob-cdt endpoint posted without blocking: the one
// pickle method that is a single datatype message.
type pickleAsync struct{ *pickleEndpoint }

func (e pickleAsync) Isend(c *core.Comm, slot, peer, tag int) (*core.Request, error) {
	return c.Isend(&serial.Msg{Value: e.out[slot], Threshold: serial.DefaultThreshold}, 1, e.dt, peer, tag)
}

func (e pickleAsync) Irecv(c *core.Comm, slot, peer, tag int) (*core.Request, error) {
	e.msgs[slot] = serial.Msg{}
	return c.Irecv(&e.msgs[slot], 1, e.dt, peer, tag)
}

func (e pickleAsync) Landed(slot int) (err error) {
	e.in[slot], err = e.msgs[slot].Decode()
	return err
}

func pickleCell(method string, complex bool, size, slots int) *cellSpec {
	shape := "ndarray"
	if complex {
		shape = "complex-object"
	}
	return &cellSpec{
		Name:   fmt.Sprintf("%s/%s/%s", method, shape, sizeName(int64(size))),
		Method: method, Shape: shape, Bytes: int64(size), Slots: slots, Image: int64(size), Custom: method == "oob-cdt",
		open: func(env *cellEnv, spec *cellSpec) (endpoint, error) {
			ep := &pickleEndpoint{name: spec.Name, method: method, in: make([]any, spec.Slots), flip: env.flipAt == spec.Name}
			ep.object = func(slot int) any { return pickleObject(complex, size, byte(env.slotSeed(shape, slot))) }
			for i := 0; env.sends && i < spec.Slots; i++ {
				ep.out = append(ep.out, ep.object(i))
			}
			if method != "oob-cdt" {
				return ep, nil
			}
			ep.dt = serial.ObjectType()
			ep.msgs = make([]serial.Msg, spec.Slots)
			return pickleAsync{ep}, nil
		},
	}
}

// ---------------------------------------------------------------------------
// measurement items

type opKind uint8

const (
	opLat   opKind = iota // ping-pong, one sample per round trip
	opBw                  // window of sends closed by a 1-byte ack
	opRate                // 64 pipelined small messages
	opTrain               // workloads.RunTrainingLoop across all ranks
)

func (k opKind) String() string {
	return [...]string{"lat", "bw", "rate", "train"}[k]
}

// metric names the end-to-end metric a kind of item feeds.
func (k opKind) metric() string {
	return [...]string{"lat_us_p50", "bw_mbps", "msg_rate_kps", "steps_per_s"}[k]
}

// item is one timed thing: an op kind applied to a cell.
type item struct {
	Kind   opKind
	Cell   *cellSpec
	Window int
	// Think is idle time rank 0 leaves before each op (not timed).
	// The launched workloads use it so every round trip starts with the
	// provider's poll loops asleep, as an application that computes between
	// messages finds them. Back to back, SHM flips between a 5 us mode
	// (both pollers still spinning) and a 580 us mode (both asleep) at
	// random, and no median of that is steady.
	Think time.Duration
}

const rateWindow = 64

func latItem(c *cellSpec) item  { return item{Kind: opLat, Cell: c, Window: 1} }
func rateItem(c *cellSpec) item { return item{Kind: opRate, Cell: c, Window: rateWindow} }
func bwItem(c *cellSpec) item {
	w := 4
	if c.Bytes <= 64<<10 {
		w = 64
	}
	return bwItemOf(c, w)
}

func bwItemOf(c *cellSpec, w int) item {
	if c.Slots < w {
		c.Slots = w
	}
	return item{Kind: opBw, Cell: c, Window: w}
}

func structSimpleDDT() *ddt.Type      { return workloads.StructSimpleType() }
func structSimpleNoGapDDT() *ddt.Type { return workloads.StructSimpleNoGapType() }

func eagerSmallItems() []item {
	var items []item
	for _, size := range []int64{64, 1 << 10, 8 << 10} {
		n := elemsFor(shapeStructSimple, size)
		cells := func(slots int) []*cellSpec {
			return []*cellSpec{
				bytesCell(size, slots),
				ddtCell(shapeStructSimple, structSimpleDDT, n, slots),
				deriveCell(n, slots),
				customCell(shapeStructSimple, workloads.StructSimpleCustom, n, slots),
			}
		}
		for _, c := range cells(1) {
			items = append(items, latItem(c))
		}
		if size == 64 {
			for _, c := range cells(rateWindow) {
				items = append(items, rateItem(c))
			}
		}
		if size == 8<<10 {
			for _, c := range cells(rateWindow) {
				items = append(items, bwItem(c))
			}
		}
	}
	return items
}

// packKernels shatter into many small runs: packing is the right choice.
var packKernels = []string{"NAS_LU_y", "NAS_MG_x", "LAMMPS", "WRF_x_vec"}

// regionKernels expose a few large regions: regions are the right choice.
var regionKernels = []string{"MILC", "NAS_LU_x", "NAS_MG_y"}

const kernelScale = 2

func packLargeItems() []item {
	var items []item
	gapped := func(size int64, slots int) []*cellSpec {
		n := elemsFor(shapeStructSimple, size)
		return []*cellSpec{
			ddtCell(shapeStructSimple, structSimpleDDT, n, slots),
			customCell(shapeStructSimple, workloads.StructSimpleCustom, n, slots),
			manualCell(shapeStructSimple, n, slots),
		}
	}
	for _, c := range gapped(256<<10, 1) {
		items = append(items, latItem(c))
	}
	big := int64(4 << 20)
	for _, c := range gapped(big, poolSlots(big*int64(shapeStructSimple.extent)/int64(shapeStructSimple.packed))) {
		items = append(items, bwItem(c))
	}
	for _, k := range packKernels {
		items = append(items,
			bwItem(kernelCell(k, kernelScale, ddtbench.MethodDDT)),
			bwItem(kernelCell(k, kernelScale, ddtbench.MethodCustomPack)))
	}
	small := elemsFor(shapeStructSimple, 1<<10)
	items = append(items,
		rateItem(ddtCell(shapeStructSimple, structSimpleDDT, small, rateWindow)),
		rateItem(customCell(shapeStructSimple, workloads.StructSimpleCustom, small, rateWindow)))
	return items
}

func regionsLargeItems() []item {
	var items []item
	cells := func(size int64, slots func(image int64) int) []*cellSpec {
		ng := elemsFor(shapeStructNoGap, size)
		sv := elemsFor(shapeStructVec, size)
		return []*cellSpec{
			bytesCell(size, slots(size)),
			ddtCell(shapeStructNoGap, structSimpleNoGapDDT, ng, slots(size)),
			customCell(shapeStructNoGap, workloads.StructSimpleNoGapCustom, ng, slots(size)),
			customCell(shapeStructVec, workloads.StructVecCustom, sv, slots(int64(sv*shapeStructVec.extent))),
			doubleVecCell(int(size), 1<<10, slots(size)),
			doubleVecCell(int(size), 4<<10, slots(size)),
		}
	}
	for _, c := range cells(256<<10, func(int64) int { return 1 }) {
		items = append(items, latItem(c))
	}
	for _, c := range cells(4<<20, poolSlots) {
		items = append(items, bwItem(c))
	}
	for _, k := range regionKernels {
		items = append(items,
			bwItem(kernelCell(k, kernelScale, ddtbench.MethodDDT)),
			bwItem(kernelCell(k, kernelScale, ddtbench.MethodCustomRegions)))
	}
	// The two kernels where regions are the wrong choice: thousands of tiny
	// pieces. They keep the workload honest about what regions cost. One
	// message is a window here: at tens of MB/s four would eat the budget.
	for _, k := range []string{"NAS_LU_y", "NAS_MG_x"} {
		items = append(items, bwItemOf(kernelCell(k, kernelScale, ddtbench.MethodCustomRegions), 1))
	}
	return append(items, rateItem(customCell(shapeStructVec, workloads.StructVecCustom, 1, rateWindow)))
}

func pickleItems() []item {
	var items []item
	methods := []string{"basic", "oob", "oob-cdt"}
	for _, complex := range []bool{false, true} {
		for _, m := range methods {
			items = append(items, latItem(pickleCell(m, complex, 256<<10, 1)))
			items = append(items, bwItem(pickleCell(m, complex, 4<<20, poolSlots(4<<20))))
		}
	}
	for _, m := range methods {
		items = append(items, rateItem(pickleCell(m, false, 1<<10, rateWindow)))
	}
	return items
}

// launchedThink is the think time of the launched workloads' ping-pongs;
// any sleep outlasts the 128 yields a poll loop spins before it sleeps.
const launchedThink = 200 * time.Microsecond

// xprocItems are the cells of shm-pingpong and tcp-pingpong: few, so each
// gets a long trial, which the launched transports need to be steady.
func xprocItems() []item {
	big := int64(4 << 20)
	ss := elemsFor(shapeStructSimple, big)
	sv := elemsFor(shapeStructVec, big)
	small := elemsFor(shapeStructSimple, 1<<10)
	idle := func(it item) item { it.Think = launchedThink; return it }
	return []item{
		idle(latItem(bytesCell(64, 1))),
		idle(latItem(ddtCell(shapeStructSimple, structSimpleDDT, small, 1))),
		idle(bwItem(bytesCell(big, poolSlots(big)))),
		idle(bwItem(ddtCell(shapeStructSimple, structSimpleDDT, ss, poolSlots(int64(ss*shapeStructSimple.extent))))),
		idle(bwItem(customCell(shapeStructVec, workloads.StructVecCustom, sv, poolSlots(int64(sv*shapeStructVec.extent))))),
		idle(rateItem(bytesCell(64, rateWindow))),
	}
}

// Training-loop shape: a 1 MiB persistent Rabenseifner Allreduce and a
// strided-ddt halo of 256 blocks of 16 int64 every 32.
const (
	trainGradCount    = 131072
	trainHaloBlocks   = 256
	trainHaloBlockLen = 16
	trainHaloStride   = 32
)

func trainHaloDDT() *ddt.Type {
	t, err := ddt.Vector(trainHaloBlocks, trainHaloBlockLen, trainHaloStride, ddt.Int64)
	if err != nil {
		panic(err)
	}
	return t
}

// trainStepItems: the training loop itself, plus its two p2p building
// blocks timed between ranks 0 and 1 while ranks 2 and 3 sit in the world.
func trainStepItems() []item {
	halo := haloShape(trainHaloBlocks, trainHaloBlockLen, trainHaloStride)
	grad := int64(trainGradCount * 8)
	return []item{
		{Kind: opTrain, Window: 1},
		latItem(ddtCell(halo, trainHaloDDT, 1, 1)),
		bwItem(bytesCell(grad, poolSlots(grad))),
		rateItem(bytesCell(64, rateWindow)),
	}
}
