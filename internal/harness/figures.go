package harness

import (
	"fmt"
	"io"

	"mpicd/internal/core"
	"mpicd/internal/ddtbench"
	"mpicd/internal/serial"
	"mpicd/internal/workloads"
)

// Table is a row/column result (Figure 10 bars, Table I).
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    []TableRow
}

// TableRow is one table line.
type TableRow struct {
	Name  string
	Cells []string
}

// Print renders the table aligned.
func (t *Table) Print(w io.Writer) {
	fmt.Fprintf(w, "# %s — %s\n", t.ID, t.Title)
	width := 12
	for _, r := range t.Rows {
		if len(r.Name) > width {
			width = len(r.Name)
		}
	}
	fmt.Fprintf(w, "%-*s", width, "")
	for _, col := range t.Columns {
		fmt.Fprintf(w, " %20s", col)
	}
	fmt.Fprintln(w)
	for _, r := range t.Rows {
		fmt.Fprintf(w, "%-*s", width, r.Name)
		for _, cell := range r.Cells {
			fmt.Fprintf(w, " %20s", cell)
		}
		fmt.Fprintln(w)
	}
}

// --- double-vec ops (Figures 1 and 2) ---------------------------------------

// DoubleVecOp builds the op for one (method, total size, subvec size).
func DoubleVecOp(method string, total, subvec int) Op {
	send := workloads.NewDoubleVec(total, subvec, 1)
	bytes := int64(workloads.DoubleVecBytes(send))
	switch method {
	case "custom":
		dt := workloads.DoubleVecCustom()
		return Op{
			Name:  method,
			Bytes: bytes,
			Send:  func(c *core.Comm, dst, tag int) error { return c.Send(send, 1, dt, dst, tag) },
			Recv: func(c *core.Comm, src, tag int) error {
				// Fresh each op, not received into in place: the figures
				// compare allocation-inclusive receives with manual-pack.
				var recv [][]byte
				_, err := c.Recv(&recv, 1, dt, src, tag)
				return err
			},
		}
	case "manual-pack":
		scratch := make([]byte, workloads.PackedDoubleVecSize(send))
		return Op{
			Name:  method,
			Bytes: bytes,
			Send: func(c *core.Comm, dst, tag int) error {
				workloads.PackDoubleVec(send, scratch)
				return c.Send(scratch, -1, core.TypeBytes, dst, tag)
			},
			Recv: func(c *core.Comm, src, tag int) error {
				// Dynamic type: the receiver probes for the size like real
				// bindings do, then allocates and unpacks.
				m, err := c.Mprobe(src, tag)
				if err != nil {
					return err
				}
				buf := make([]byte, m.Bytes)
				if _, err := c.MRecv(m, buf, -1, core.TypeBytes); err != nil {
					return err
				}
				_, err = workloads.UnpackDoubleVec(buf)
				return err
			},
		}
	case "rsmpi-bytes-baseline":
		flat := make([]byte, total)
		rflat := make([]byte, total)
		return Op{
			Name:  method,
			Bytes: int64(total),
			Send:  func(c *core.Comm, dst, tag int) error { return c.Send(flat, -1, core.TypeBytes, dst, tag) },
			Recv: func(c *core.Comm, src, tag int) error {
				_, err := c.Recv(rflat, -1, core.TypeBytes, src, tag)
				return err
			},
		}
	}
	panic("harness: unknown double-vec method " + method)
}

// Fig1 reproduces Figure 1: double-vec latency over message size, one
// custom line per subvector size, plus manual-pack and the raw-bytes
// baseline.
func Fig1(cfg Config) (*Figure, error) {
	f := &Figure{
		ID:     "fig1",
		Title:  "Latency, double-vector type, varying subvector size",
		XLabel: "bytes",
		YLabel: "latency (us)",
	}
	sizes := Sizes(64, 1<<20, cfg.MaxBytes)
	for _, size := range sizes {
		for _, sub := range []int{64, 256, 1024, 4096} {
			op := DoubleVecOp("custom", int(size), sub)
			mean, dev, err := MeasureLatency(cfg, op)
			if err != nil {
				return nil, err
			}
			f.Add(fmt.Sprintf("custom-sub%d", sub), Point{X: size, Val: mean, Dev: dev})
		}
		for _, m := range []string{"manual-pack", "rsmpi-bytes-baseline"} {
			op := DoubleVecOp(m, int(size), 1024)
			mean, dev, err := MeasureLatency(cfg, op)
			if err != nil {
				return nil, err
			}
			f.Add(m, Point{X: size, Val: mean, Dev: dev})
		}
	}
	return f, nil
}

// Fig2 reproduces Figure 2: double-vec bandwidth with 1024-byte
// subvectors.
func Fig2(cfg Config) (*Figure, error) {
	f := &Figure{
		ID:     "fig2",
		Title:  "Bandwidth, double-vector type, subvector size 1024 B",
		XLabel: "bytes",
		YLabel: "bandwidth (MB/s)",
	}
	for _, size := range Sizes(1<<10, 1<<22, cfg.MaxBytes) {
		for _, m := range []string{"custom", "manual-pack", "rsmpi-bytes-baseline"} {
			op := DoubleVecOp(m, int(size), 1024)
			mean, dev, err := MeasureBandwidth(cfg, op)
			if err != nil {
				return nil, err
			}
			f.Add(m, Point{X: size, Val: mean, Dev: dev})
		}
	}
	return f, nil
}

// --- struct type ops (Figures 3-7) -------------------------------------------

// structSpec abstracts over the three paper struct types.
type structSpec struct {
	name    string
	extent  int
	packed  int
	fill    func(img []byte, count int, seed int32)
	pack    func(img []byte, count int, dst []byte) int
	unpack  func(src []byte, img []byte, count int)
	custom  func() *core.Datatype
	derived func() *core.Datatype
	// goDerive is the TypeOf[T]-derived equivalent of derived: same wire
	// format and — by plan interning — the same compiled plan, built from
	// the Go mirror struct instead of a hand-written constructor tree.
	goDerive func() *core.Datatype
}

var structVecSpec = structSpec{
	name:     "struct-vec",
	extent:   workloads.StructVecExtent,
	packed:   workloads.StructVecPacked,
	fill:     workloads.FillStructVec,
	pack:     workloads.PackStructVec,
	unpack:   workloads.UnpackStructVec,
	custom:   workloads.StructVecCustom,
	derived:  func() *core.Datatype { return core.FromDDT(workloads.StructVecType()) },
	goDerive: func() *core.Datatype { return core.FromDDT(workloads.StructVecDerived()) },
}

var structSimpleSpec = structSpec{
	name:     "struct-simple",
	extent:   workloads.StructSimpleExtent,
	packed:   workloads.StructSimplePacked,
	fill:     workloads.FillStructSimple,
	pack:     workloads.PackStructSimple,
	unpack:   workloads.UnpackStructSimple,
	custom:   workloads.StructSimpleCustom,
	derived:  func() *core.Datatype { return core.FromDDT(workloads.StructSimpleType()) },
	goDerive: func() *core.Datatype { return core.FromDDT(workloads.StructSimpleDerived()) },
}

var structSimpleNoGapSpec = structSpec{
	name:     "struct-simple-no-gap",
	extent:   workloads.StructSimpleNoGapExtent,
	packed:   workloads.StructSimpleNoGapPacked,
	fill:     workloads.FillStructSimpleNoGap,
	pack:     workloads.PackStructSimpleNoGap,
	unpack:   workloads.UnpackStructSimpleNoGap,
	custom:   workloads.StructSimpleNoGapCustom,
	derived:  func() *core.Datatype { return core.FromDDT(workloads.StructSimpleNoGapType()) },
	goDerive: func() *core.Datatype { return core.FromDDT(workloads.StructSimpleNoGapDerived()) },
}

// StructOp builds the op for one (spec, method, element count).
func StructOp(spec structSpec, method string, count int) Op {
	img := make([]byte, count*spec.extent)
	spec.fill(img, count, 11)
	rimg := make([]byte, count*spec.extent)
	bytes := int64(count * spec.packed)
	switch method {
	case "custom":
		dt := spec.custom()
		return Op{
			Name:  method,
			Bytes: bytes,
			Send:  func(c *core.Comm, dst, tag int) error { return c.Send(img, int64(count), dt, dst, tag) },
			Recv: func(c *core.Comm, src, tag int) error {
				_, err := c.Recv(rimg, int64(count), dt, src, tag)
				return err
			},
		}
	case "packed":
		sscratch := make([]byte, count*spec.packed)
		rscratch := make([]byte, count*spec.packed)
		return Op{
			Name:  method,
			Bytes: bytes,
			Send: func(c *core.Comm, dst, tag int) error {
				spec.pack(img, count, sscratch)
				return c.Send(sscratch, -1, core.TypeBytes, dst, tag)
			},
			Recv: func(c *core.Comm, src, tag int) error {
				if _, err := c.Recv(rscratch, -1, core.TypeBytes, src, tag); err != nil {
					return err
				}
				spec.unpack(rscratch, rimg, count)
				return nil
			},
		}
	case "rsmpi":
		dt := spec.derived()
		return Op{
			Name:  method,
			Bytes: bytes,
			Send:  func(c *core.Comm, dst, tag int) error { return c.Send(img, int64(count), dt, dst, tag) },
			Recv: func(c *core.Comm, src, tag int) error {
				_, err := c.Recv(rimg, int64(count), dt, src, tag)
				return err
			},
		}
	case "derive":
		dt := spec.goDerive()
		return Op{
			Name:  method,
			Bytes: bytes,
			Send:  func(c *core.Comm, dst, tag int) error { return c.Send(img, int64(count), dt, dst, tag) },
			Recv: func(c *core.Comm, src, tag int) error {
				_, err := c.Recv(rimg, int64(count), dt, src, tag)
				return err
			},
		}
	}
	panic("harness: unknown struct method " + method)
}

// normalizeStructMethod maps CLI spellings onto the figure labels.
func normalizeStructMethod(m string) string {
	if m == "manual-pack" {
		return "packed"
	}
	return m
}

// StructSimpleOp builds a struct-simple op carrying roughly size payload
// bytes (rounded to whole elements).
func StructSimpleOp(method string, size int) Op {
	count := size / workloads.StructSimplePacked
	if count < 1 {
		count = 1
	}
	return StructOp(structSimpleSpec, normalizeStructMethod(method), count)
}

// StructVecOp builds a struct-vec op carrying roughly size payload bytes.
func StructVecOp(method string, size int) Op {
	count := size / workloads.StructVecPacked
	if count < 1 {
		count = 1
	}
	return StructOp(structVecSpec, normalizeStructMethod(method), count)
}

// StructSimpleNoGapOp builds a struct-simple-no-gap op carrying roughly
// size payload bytes.
func StructSimpleNoGapOp(method string, size int) Op {
	count := size / workloads.StructSimpleNoGapPacked
	if count < 1 {
		count = 1
	}
	return StructOp(structSimpleNoGapSpec, normalizeStructMethod(method), count)
}

// PickleOpSingleArray builds a Figure 8 op: one array of size bytes.
func PickleOpSingleArray(method string, size int64) Op {
	return PickleOp(method, serial.NewFloat64Array(int(size)/8, 5), size)
}

// PickleOpComplexObject builds a Figure 9 op: 128-KiB arrays summing to
// size bytes, wrapped with small metadata.
func PickleOpComplexObject(method string, size int64) Op {
	const arrayBytes = 128 * 1024
	arrays := int(size) / arrayBytes
	if arrays < 1 {
		arrays = 1
	}
	list := make([]any, arrays)
	for i := range list {
		list[i] = serial.NewFloat64Array(arrayBytes/8, byte(i+1))
	}
	obj := map[string]any{"arrays": list, "meta": "complex-object", "step": int64(7)}
	return PickleOp(method, obj, size)
}

// structFigure sweeps counts for one spec and measurement kind.
func structFigure(cfg Config, id, title string, spec structSpec, bandwidth bool, minCount int) (*Figure, error) {
	yl := "latency (us)"
	if bandwidth {
		yl = "bandwidth (MB/s)"
	}
	f := &Figure{ID: id, Title: title, XLabel: "bytes", YLabel: yl}
	for count := minCount; ; count *= 2 {
		size := int64(count * spec.packed)
		if size > cfg.MaxBytes {
			break
		}
		for _, m := range []string{"custom", "packed", "rsmpi", "derive"} {
			op := StructOp(spec, m, count)
			var mean, dev float64
			var err error
			if bandwidth {
				mean, dev, err = MeasureBandwidth(cfg, op)
			} else {
				mean, dev, err = MeasureLatency(cfg, op)
			}
			if err != nil {
				return nil, err
			}
			f.Add(m, Point{X: size, Val: mean, Dev: dev})
		}
	}
	return f, nil
}

// Fig3 reproduces Figure 3: struct-vec latency.
func Fig3(cfg Config) (*Figure, error) {
	return structFigure(cfg, "fig3", "Latency, struct-vec type", structVecSpec, false, 1)
}

// Fig4 reproduces Figure 4: struct-vec bandwidth.
func Fig4(cfg Config) (*Figure, error) {
	return structFigure(cfg, "fig4", "Bandwidth, struct-vec type", structVecSpec, true, 4)
}

// Fig5 reproduces Figure 5: struct-simple latency (the gapped struct the
// derived-datatype engine handles poorly).
func Fig5(cfg Config) (*Figure, error) {
	return structFigure(cfg, "fig5", "Latency, struct-simple type", structSimpleSpec, false, 1)
}

// Fig6 reproduces Figure 6: struct-simple-no-gap latency (contiguous, so
// the derived-datatype engine matches).
func Fig6(cfg Config) (*Figure, error) {
	return structFigure(cfg, "fig6", "Latency, struct-simple-no-gap type", structSimpleNoGapSpec, false, 1)
}

// Fig7 reproduces Figure 7: struct-simple bandwidth (manual-pack dips at
// the eager/rendezvous switchover; custom does not).
func Fig7(cfg Config) (*Figure, error) {
	return structFigure(cfg, "fig7", "Bandwidth, struct-simple type", structSimpleSpec, true, 1)
}

// --- serialized objects (Figures 8 and 9) ------------------------------------

// PickleOp builds the op for one (method, object) pair.
func PickleOp(method string, obj any, bytes int64) Op {
	switch method {
	case "roofline":
		buf := make([]byte, bytes)
		rbuf := make([]byte, bytes)
		return Op{
			Name:  method,
			Bytes: bytes,
			Send:  func(c *core.Comm, dst, tag int) error { return c.Send(buf, -1, core.TypeBytes, dst, tag) },
			Recv: func(c *core.Comm, src, tag int) error {
				_, err := c.Recv(rbuf, -1, core.TypeBytes, src, tag)
				return err
			},
		}
	case "pickle-basic":
		return Op{
			Name:  method,
			Bytes: bytes,
			Send:  func(c *core.Comm, dst, tag int) error { return serial.SendBasic(c, obj, dst, tag) },
			Recv: func(c *core.Comm, src, tag int) error {
				_, err := serial.RecvBasic(c, src, tag)
				return err
			},
		}
	case "pickle-oob":
		return Op{
			Name:  method,
			Bytes: bytes,
			Send: func(c *core.Comm, dst, tag int) error {
				return serial.SendOOB(c, obj, dst, tag, serial.DefaultThreshold)
			},
			Recv: func(c *core.Comm, src, tag int) error {
				_, err := serial.RecvOOB(c, src, tag)
				return err
			},
		}
	case "pickle-oob-cdt":
		return Op{
			Name:  method,
			Bytes: bytes,
			Send: func(c *core.Comm, dst, tag int) error {
				return serial.SendCDT(c, obj, dst, tag, serial.DefaultThreshold)
			},
			Recv: func(c *core.Comm, src, tag int) error {
				_, err := serial.RecvCDT(c, src, tag)
				return err
			},
		}
	}
	panic("harness: unknown pickle method " + method)
}

var pickleMethods = []string{"roofline", "pickle-basic", "pickle-oob", "pickle-oob-cdt"}

// Fig8 reproduces Figure 8: pingpong bandwidth of a single NumPy-like
// array of the given size.
func Fig8(cfg Config) (*Figure, error) {
	f := &Figure{
		ID:     "fig8",
		Title:  "Pingpong bandwidth, single array object",
		XLabel: "bytes",
		YLabel: "bandwidth (MB/s)",
	}
	for _, size := range Sizes(1<<10, 1<<24, cfg.MaxBytes) {
		obj := serial.NewFloat64Array(int(size)/8, 5)
		for _, m := range pickleMethods {
			mean, dev, err := MeasureBandwidth(cfg, PickleOp(m, obj, size))
			if err != nil {
				return nil, err
			}
			f.Add(m, Point{X: size, Val: mean, Dev: dev})
		}
	}
	return f, nil
}

// Fig9 reproduces Figure 9: pingpong bandwidth of a complex object made
// of 128-KiB arrays summing to the x-axis size.
func Fig9(cfg Config) (*Figure, error) {
	f := &Figure{
		ID:     "fig9",
		Title:  "Pingpong bandwidth, complex object of 128 KiB arrays",
		XLabel: "bytes",
		YLabel: "bandwidth (MB/s)",
	}
	const arrayBytes = 128 * 1024
	lo := int64(arrayBytes)
	if cfg.MaxBytes < lo {
		lo = cfg.MaxBytes
	}
	for _, size := range Sizes(lo, 1<<24, cfg.MaxBytes) {
		arrays := int(size) / arrayBytes
		per := arrayBytes
		if arrays == 0 {
			arrays = 1
			per = int(size)
		}
		list := make([]any, arrays)
		for i := range list {
			list[i] = serial.NewFloat64Array(per/8, byte(i+1))
		}
		obj := map[string]any{"arrays": list, "meta": "complex-object", "step": int64(7)}
		for _, m := range pickleMethods {
			mean, dev, err := MeasureBandwidth(cfg, PickleOp(m, obj, size))
			if err != nil {
				return nil, err
			}
			f.Add(m, Point{X: size, Val: mean, Dev: dev})
		}
	}
	return f, nil
}

// --- DDTBench (Figure 10, Table I) -------------------------------------------

// DDTBenchOp builds the op for one (kernel instance, method).
func DDTBenchOp(in *ddtbench.Instance, m ddtbench.Method) (Op, error) {
	img := in.NewImage(9)
	rimg := make([]byte, in.ImageLen)
	send, err := ddtbench.NewEndpoint(in, m)
	if err != nil {
		return Op{}, err
	}
	recv, err := ddtbench.NewEndpoint(in, m)
	if err != nil {
		return Op{}, err
	}
	return Op{
		Name:  string(m),
		Bytes: int64(in.Packed),
		Send:  func(c *core.Comm, dst, tag int) error { return send.Send(c, img, dst, tag) },
		Recv:  func(c *core.Comm, src, tag int) error { return recv.Recv(c, rimg, src, tag) },
	}, nil
}

// Fig10Methods is the column order of the Figure 10 table.
var Fig10Methods = []ddtbench.Method{
	ddtbench.MethodReference,
	ddtbench.MethodDDT,
	ddtbench.MethodDDTPack,
	ddtbench.MethodManualPack,
	ddtbench.MethodCustomPack,
	ddtbench.MethodCustomCoro,
	ddtbench.MethodCustomRegions,
}

// Fig10 reproduces Figure 10: DDTBench bandwidth per kernel and method
// (empty cells where a method does not apply). scale sets the exchange
// size (1 is a few hundred KiB packed).
func Fig10(cfg Config, scale int) (*Table, error) {
	t := &Table{
		ID:    "fig10",
		Title: fmt.Sprintf("DDTBench bandwidth in MB/s (scale %d)", scale),
	}
	for _, m := range Fig10Methods {
		t.Columns = append(t.Columns, string(m))
	}
	for _, k := range ddtbench.All {
		in := k.Instance(scale)
		row := TableRow{Name: k.Name}
		for _, m := range Fig10Methods {
			if m == ddtbench.MethodCustomRegions && !k.Regions {
				row.Cells = append(row.Cells, "-")
				continue
			}
			op, err := DDTBenchOp(in, m)
			if err != nil {
				return nil, err
			}
			mean, dev, err := MeasureBandwidth(cfg, op)
			if err != nil {
				return nil, err
			}
			row.Cells = append(row.Cells, fmt.Sprintf("%.1f ±%.1f", mean, dev))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// TableI reproduces Table I: the benchmark characteristics.
func TableI() *Table {
	t := &Table{
		ID:      "tableI",
		Title:   "Benchmark characteristics",
		Columns: []string{"MPI Datatypes", "Loop Structure", "Memory Regions"},
	}
	for _, k := range ddtbench.All {
		reg := ""
		if k.Regions {
			reg = "yes"
		}
		t.Rows = append(t.Rows, TableRow{Name: k.Name, Cells: []string{k.Datatypes, k.Loops, reg}})
	}
	return t
}
