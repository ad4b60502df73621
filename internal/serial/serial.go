// Package serial is the reproduction's stand-in for Python's pickle with
// PEP-574 out-of-band buffers (pickle protocol 5), which the paper's
// Python evaluation (Section V.B) builds on.
//
// A value serializes into a small in-band header stream plus — when
// out-of-band mode is enabled — a list of zero-copy buffers: large Buffer
// values are not copied into the stream; the stream records an index and
// length, and the raw bytes travel separately (over separate MPI messages,
// or as custom-datatype memory regions). NDArray models a NumPy array:
// its serialized header (dtype, shape, flags) is a few dozen bytes, small
// against the array payloads the benchmarks move, matching the paper's
// ~120-byte pickle header observation.
//
// The value model is deliberately pickle-shaped but finite: nil, bool,
// int64, float64, string, Buffer, []any, map[string]any and *NDArray.
// This covers everything the paper's benchmarks serialize; arbitrary Go
// object graphs are out of scope (a substitution recorded in DESIGN.md).
package serial

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Buffer is the PickleBuffer analogue: a byte payload eligible for
// out-of-band (zero-copy) treatment.
type Buffer []byte

// NDArray models a NumPy ndarray: shape, dtype, and a flat data buffer.
// Strides, when non-nil, give the byte distance between consecutive
// elements along each dimension (a non-contiguous NumPy view); Encode
// packs such arrays into C order through a compiled datatype plan (see
// ndplan.go), so the wire format always carries contiguous data.
type NDArray struct {
	DType   string
	Shape   []int64
	Strides []int64
	Data    Buffer
}

// NewFloat64Array builds a 1-D float64 NDArray of n elements with
// deterministic contents.
func NewFloat64Array(n int, seed byte) *NDArray {
	data := make(Buffer, 8*n)
	for i := range data {
		data[i] = byte(i)*29 + seed
	}
	return &NDArray{DType: "float64", Shape: []int64{int64(n)}, Data: data}
}

// Elems returns the number of elements implied by the shape.
func (a *NDArray) Elems() int64 {
	n := int64(1)
	for _, s := range a.Shape {
		n *= s
	}
	return n
}

// value tags of the wire format.
const (
	tagNil     = 0
	tagFalse   = 1
	tagTrue    = 2
	tagInt     = 3
	tagFloat   = 4
	tagString  = 5
	tagBytes   = 6 // in-band buffer
	tagBufRef  = 7 // out-of-band buffer reference
	tagList    = 8
	tagDict    = 9
	tagNDArray = 10
)

// ErrFormat reports a corrupt or unsupported stream.
var ErrFormat = errors.New("serial: invalid stream")

// Encoder serializes values. With a non-negative OOB threshold, Buffer
// values of at least that many bytes are emitted out-of-band.
type Encoder struct {
	out       []byte
	oob       []Buffer
	oobMode   bool
	threshold int
}

// NewEncoder returns an in-band encoder (everything in one stream).
func NewEncoder() *Encoder { return &Encoder{threshold: -1} }

// NewEncoderOOB returns an encoder that hoists Buffers of >= threshold
// bytes out-of-band.
func NewEncoderOOB(threshold int) *Encoder {
	if threshold < 0 {
		threshold = 0
	}
	return &Encoder{oobMode: true, threshold: threshold}
}

func (e *Encoder) u32(v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	e.out = append(e.out, b[:]...)
}

func (e *Encoder) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	e.out = append(e.out, b[:]...)
}

func (e *Encoder) str(s string) {
	e.u32(uint32(len(s)))
	e.out = append(e.out, s...)
}

// Encode appends one value to the stream.
func (e *Encoder) Encode(v any) error {
	switch x := v.(type) {
	case nil:
		e.out = append(e.out, tagNil)
	case bool:
		if x {
			e.out = append(e.out, tagTrue)
		} else {
			e.out = append(e.out, tagFalse)
		}
	case int:
		e.out = append(e.out, tagInt)
		e.u64(uint64(int64(x)))
	case int32:
		e.out = append(e.out, tagInt)
		e.u64(uint64(int64(x)))
	case int64:
		e.out = append(e.out, tagInt)
		e.u64(uint64(x))
	case float64:
		e.out = append(e.out, tagFloat)
		e.u64(math.Float64bits(x))
	case string:
		e.out = append(e.out, tagString)
		e.str(x)
	case Buffer:
		e.buffer(x)
	case []byte:
		e.buffer(Buffer(x))
	case []any:
		e.out = append(e.out, tagList)
		e.u32(uint32(len(x)))
		for _, el := range x {
			if err := e.Encode(el); err != nil {
				return err
			}
		}
	case map[string]any:
		e.out = append(e.out, tagDict)
		e.u32(uint32(len(x)))
		// Deterministic key order (insertion-order-free): sort keys.
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sortStrings(keys)
		for _, k := range keys {
			e.str(k)
			if err := e.Encode(x[k]); err != nil {
				return err
			}
		}
	case *NDArray:
		if x == nil {
			e.out = append(e.out, tagNil)
			return nil
		}
		data, err := x.packed()
		if err != nil {
			return err
		}
		e.out = append(e.out, tagNDArray)
		e.str(x.DType)
		e.u32(uint32(len(x.Shape)))
		for _, s := range x.Shape {
			e.u64(uint64(s))
		}
		e.buffer(data)
	default:
		return fmt.Errorf("serial: unsupported type %T", v)
	}
	return nil
}

func (e *Encoder) buffer(b Buffer) {
	if e.oobMode && len(b) >= e.threshold {
		e.out = append(e.out, tagBufRef)
		e.u32(uint32(len(e.oob)))
		e.u64(uint64(len(b)))
		e.oob = append(e.oob, b)
		return
	}
	e.out = append(e.out, tagBytes)
	e.u32(uint32(len(b)))
	e.out = append(e.out, b...)
}

// Header returns the in-band stream.
func (e *Encoder) Header() []byte { return e.out }

// OOB returns the out-of-band buffers in reference order.
func (e *Encoder) OOB() []Buffer { return e.oob }

// Dumps serializes v fully in-band (basic pickle).
func Dumps(v any) ([]byte, error) {
	e := NewEncoder()
	if err := e.Encode(v); err != nil {
		return nil, err
	}
	return e.Header(), nil
}

// DumpsOOB serializes v with out-of-band buffers (pickle protocol 5).
func DumpsOOB(v any, threshold int) (header []byte, oob []Buffer, err error) {
	e := NewEncoderOOB(threshold)
	if err := e.Encode(v); err != nil {
		return nil, nil, err
	}
	return e.Header(), e.OOB(), nil
}

// Decoder deserializes a stream produced by an Encoder.
type Decoder struct {
	in  []byte
	oob []Buffer
	at  int
}

// NewDecoder decodes an in-band stream.
func NewDecoder(header []byte) *Decoder { return &Decoder{in: header} }

// NewDecoderOOB decodes a stream with its out-of-band buffers. Decoded
// Buffers alias the supplied oob slices (zero copy).
func NewDecoderOOB(header []byte, oob []Buffer) *Decoder {
	return &Decoder{in: header, oob: oob}
}

func (d *Decoder) take(n int) ([]byte, error) {
	if d.at+n > len(d.in) {
		return nil, ErrFormat
	}
	b := d.in[d.at : d.at+n]
	d.at += n
	return b, nil
}

func (d *Decoder) u32() (uint32, error) {
	b, err := d.take(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (d *Decoder) u64() (uint64, error) {
	b, err := d.take(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

func (d *Decoder) str() (string, error) {
	n, err := d.u32()
	if err != nil {
		return "", err
	}
	b, err := d.take(int(n))
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// Decode reads one value.
func (d *Decoder) Decode() (any, error) {
	tb, err := d.take(1)
	if err != nil {
		return nil, err
	}
	switch tb[0] {
	case tagNil:
		return nil, nil
	case tagFalse:
		return false, nil
	case tagTrue:
		return true, nil
	case tagInt:
		v, err := d.u64()
		return int64(v), err
	case tagFloat:
		v, err := d.u64()
		return math.Float64frombits(v), err
	case tagString:
		return d.str()
	case tagBytes:
		n, err := d.u32()
		if err != nil {
			return nil, err
		}
		b, err := d.take(int(n))
		if err != nil {
			return nil, err
		}
		out := make(Buffer, n)
		copy(out, b)
		return out, nil
	case tagBufRef:
		idx, err := d.u32()
		if err != nil {
			return nil, err
		}
		n, err := d.u64()
		if err != nil {
			return nil, err
		}
		if int(idx) >= len(d.oob) {
			return nil, fmt.Errorf("%w: buffer reference %d of %d", ErrFormat, idx, len(d.oob))
		}
		b := d.oob[idx]
		if uint64(len(b)) != n {
			return nil, fmt.Errorf("%w: buffer %d is %d bytes, expected %d", ErrFormat, idx, len(b), n)
		}
		return b, nil
	case tagList:
		n, err := d.u32()
		if err != nil {
			return nil, err
		}
		out := make([]any, n)
		for i := range out {
			if out[i], err = d.Decode(); err != nil {
				return nil, err
			}
		}
		return out, nil
	case tagDict:
		n, err := d.u32()
		if err != nil {
			return nil, err
		}
		out := make(map[string]any, n)
		for i := uint32(0); i < n; i++ {
			k, err := d.str()
			if err != nil {
				return nil, err
			}
			if out[k], err = d.Decode(); err != nil {
				return nil, err
			}
		}
		return out, nil
	case tagNDArray:
		dtype, err := d.str()
		if err != nil {
			return nil, err
		}
		nd, err := d.u32()
		if err != nil {
			return nil, err
		}
		shape := make([]int64, nd)
		for i := range shape {
			v, err := d.u64()
			if err != nil {
				return nil, err
			}
			shape[i] = int64(v)
		}
		data, err := d.Decode()
		if err != nil {
			return nil, err
		}
		buf, ok := data.(Buffer)
		if !ok {
			return nil, fmt.Errorf("%w: ndarray data is %T", ErrFormat, data)
		}
		return &NDArray{DType: dtype, Shape: shape, Data: buf}, nil
	default:
		return nil, fmt.Errorf("%w: tag %d", ErrFormat, tb[0])
	}
}

// Loads deserializes an in-band stream. The stream must contain exactly
// one value; trailing bytes are an error.
func Loads(header []byte) (any, error) {
	d := NewDecoder(header)
	v, err := d.Decode()
	if err == nil && d.at != len(d.in) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrFormat, len(d.in)-d.at)
	}
	return v, err
}

// LoadsOOB deserializes a stream with out-of-band buffers; decoded
// Buffers alias oob (zero copy).
func LoadsOOB(header []byte, oob []Buffer) (any, error) {
	d := NewDecoderOOB(header, oob)
	v, err := d.Decode()
	if err == nil && d.at != len(d.in) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrFormat, len(d.in)-d.at)
	}
	return v, err
}

// maxBufferBytes bounds the out-of-band bytes a received header may name:
// more is a corrupt header, refused before anything is allocated.
const maxBufferBytes = 1 << 40

// BufferLens lists the out-of-band buffer lengths referenced by a header,
// in order — what the multi-message receive side needs to preallocate (the
// paper's "separate message with the buffer lengths" workaround reads
// these from the wire instead). Lengths summing past maxBufferBytes are
// an error.
func BufferLens(header []byte) ([]int64, error) {
	d := NewDecoder(header)
	var lens []int64
	total := uint64(0)
	var walk func() error
	walk = func() error {
		tb, err := d.take(1)
		if err != nil {
			return err
		}
		switch tb[0] {
		case tagNil, tagFalse, tagTrue:
		case tagInt, tagFloat:
			_, err = d.u64()
		case tagString, tagBytes:
			var n uint32
			if n, err = d.u32(); err == nil {
				_, err = d.take(int(n))
			}
		case tagBufRef:
			if _, err = d.u32(); err != nil {
				return err
			}
			var n uint64
			if n, err = d.u64(); err != nil {
				return err
			}
			if n > maxBufferBytes-total {
				return fmt.Errorf("%w: buffer %d of %d bytes takes the header's total past %d", ErrFormat, len(lens), n, maxBufferBytes)
			}
			total += n
			lens = append(lens, int64(n))
		case tagList:
			var n uint32
			if n, err = d.u32(); err != nil {
				return err
			}
			for i := uint32(0); i < n; i++ {
				if err = walk(); err != nil {
					return err
				}
			}
		case tagDict:
			var n uint32
			if n, err = d.u32(); err != nil {
				return err
			}
			for i := uint32(0); i < n; i++ {
				if _, err = d.str(); err != nil {
					return err
				}
				if err = walk(); err != nil {
					return err
				}
			}
		case tagNDArray:
			if _, err = d.str(); err != nil {
				return err
			}
			var nd uint32
			if nd, err = d.u32(); err != nil {
				return err
			}
			for i := uint32(0); i < nd; i++ {
				if _, err = d.u64(); err != nil {
					return err
				}
			}
			return walk()
		default:
			return fmt.Errorf("%w: tag %d", ErrFormat, tb[0])
		}
		return err
	}
	if err := walk(); err != nil {
		return nil, err
	}
	return lens, nil
}

// sortStrings is a dependency-free insertion sort (key sets are tiny).
func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
