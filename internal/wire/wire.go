// Package wire defines the binary message protocol spoken between VELA's
// master process and its Expert Manager workers: length-prefixed frames
// carrying typed messages (expert assignment, token batches, expert
// outputs, gradient batches, optimizer control) with dense float payloads
// in one of three encodings (fp64, fp16, int8 — see Encoding).
//
// The framing is deliberately simple — 4-byte little-endian length, 1-byte
// message type, then a type-specific payload — so both the in-process
// channel transport and the TCP transport can share one codec. The hot
// encode/decode paths are destination-passing and pool-backed
// (AppendFrame into a GetBuf buffer, DecodePooled/Release): a steady-state
// exchange round allocates nothing.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
)

// MsgType discriminates frame payloads.
type MsgType uint8

// Message types of the broker protocol.
const (
	// MsgAssign ships one expert's identity and weights to a worker.
	MsgAssign MsgType = iota + 1
	// MsgZeroGrad instructs the worker to clear expert gradients.
	MsgZeroGrad
	// MsgStep instructs the worker to run its local optimizer step.
	MsgStep
	// MsgAck acknowledges a control message.
	MsgAck
	// MsgError reports a worker-side failure.
	MsgError
	// MsgShutdown asks the worker to terminate its serve loop.
	MsgShutdown
	// MsgFetch asks the worker to release an expert — the last leg of a
	// runtime migration, sent once the expert's new host is installed.
	// The worker answers MsgAck: the state travelled in the migration's
	// snapshot.
	MsgFetch
	// MsgPing is the supervisor's heartbeat probe; a live worker answers
	// with MsgPong (the master never sends it while a dispatch frame is
	// in flight on the same connection).
	MsgPing
	// MsgPong answers a MsgPing.
	MsgPong
	// MsgSnapshot asks the worker for an expert's current state WITHOUT
	// releasing it — the non-destructive half of checkpointing, failover
	// and migration (MsgFetch removes the expert; MsgSnapshot copies it).
	MsgSnapshot
	// MsgSnapshotResult carries the copy back: the trainable weights and
	// optimizer moments, i.e. MsgAssign layout minus the frozen weights
	// (the broker's delta entry; broker/codec.go).
	MsgSnapshotResult
	// MsgForwardMulti is the token dispatch frame (the token dispatcher →
	// token receiver path in Fig. 4): every per-expert token batch a
	// worker owes for one layer, in one frame. Tensors[0] is a 1×K row of
	// expert ids; Tensors[1..K] are the corresponding batches.
	MsgForwardMulti
	// MsgForwardMultiResult mirrors MsgForwardMulti's layout with the
	// expert outputs.
	MsgForwardMultiResult
	// MsgBackwardMulti is the gradient dispatch frame (output gradients
	// in, input gradients back), in MsgForwardMulti layout.
	MsgBackwardMulti
	// MsgBackwardMultiResult mirrors MsgBackwardMulti with the input
	// gradients.
	MsgBackwardMultiResult
	// MsgTraceFetch asks the worker for its trace-ring events past a
	// cursor (Tensors[0] is a 1×1 [cursor] row; an absent tensor means
	// "from the beginning"). The master issues it at step boundaries,
	// off the training path.
	MsgTraceFetch
	// MsgTraceFetchResult returns the events: Tensors[0] is a 1×2
	// [newCursor, dropped] row, Tensors[1] (present only when events
	// exist) an N×10 matrix of rows [at, dur, seq, bytes, step, layer,
	// expert, worker, kind, phase] — all exact in float64 below 2^53.
	MsgTraceFetchResult
	// MsgBaseMiss answers a MsgAssign whose delta entry names its frozen
	// base by key (Text) when the worker has no copy of that base: the
	// worker keeps the delta, and the master then ships the base alone
	// (MsgBase).
	MsgBaseMiss
	// MsgBase carries the frozen base of the expert (Layer, Expert) whose
	// keyed MsgAssign the worker answered with MsgBaseMiss: the base's
	// tensors in Params() order. The worker installs the delta it kept
	// over it and acks.
	MsgBase
)

// MsgForward is MsgForwardMulti under the name of the retired
// single-expert dispatch frame, which declares no wire number of its own:
// bench/'s shaped-link test frames a message with it, and bench/ changes
// only with the benchmark. It goes with that test's next edit.
const MsgForward = MsgForwardMulti

// msgTypeNames is the package-level name table. String runs inside trace
// and error paths; building a map per call would put an allocation (and a
// hash walk) on the hot path.
var msgTypeNames = [...]string{
	MsgAssign:              "assign",
	MsgZeroGrad:            "zero_grad",
	MsgStep:                "step",
	MsgAck:                 "ack",
	MsgError:               "error",
	MsgShutdown:            "shutdown",
	MsgFetch:               "fetch",
	MsgPing:                "ping",
	MsgPong:                "pong",
	MsgSnapshot:            "snapshot",
	MsgSnapshotResult:      "snapshot_result",
	MsgForwardMulti:        "forward_multi",
	MsgForwardMultiResult:  "forward_multi_result",
	MsgBackwardMulti:       "backward_multi",
	MsgBackwardMultiResult: "backward_multi_result",
	MsgTraceFetch:          "trace_fetch",
	MsgTraceFetchResult:    "trace_fetch_result",
	MsgBaseMiss:            "base_miss",
	MsgBase:                "base",
}

// String implements fmt.Stringer.
func (t MsgType) String() string {
	if int(t) < len(msgTypeNames) && msgTypeNames[t] != "" {
		return msgTypeNames[t]
	}
	return fmt.Sprintf("MsgType(%d)", uint8(t))
}

// Message is one protocol frame. Fields are used per type:
//
//	Assign:          Layer, Expert, Tensors (an expert entry: full, or a
//	                 delta whose frozen base Text names by key; a worker
//	                 without that base answers BaseMiss, Layer, Expert)
//	Base:            Layer, Expert, Tensors (the frozen base a BaseMiss
//	                 asked for, in Params() order)
//	ForwardMulti /   Layer, Seq, Expert = -1, Tensors[0] = [1, K] expert-id
//	BackwardMulti:   row (fp64), Tensors[1..K] = per-expert batches [n, d]
//	                 (tokens / dY); the *MultiResult reply mirrors the
//	                 layout with outputs / dX
//	ZeroGrad/Step/Ack/Shutdown/Ping/Pong: no payload (a Step the
//	                 master retries is undone by a restore of the last
//	                 boundary's snapshot, not deduplicated by the worker)
//	Snapshot:        Layer, Expert (reply mirrors MsgAssign layout)
//	Fetch:           Layer, Expert (the release; answered by Ack)
//	Error:           Text
type Message struct {
	Type   MsgType
	Layer  int32
	Expert int32
	Seq    uint64 // request correlation id
	Text   string
	// Tensors carries dense matrices as (rows, cols, row-major float64).
	Tensors []Matrix
}

// ExpertCoalesced is the Expert stamp of a coalesced multi-expert frame:
// one frame carries every expert's batch for a worker, so no single
// expert id applies.
const ExpertCoalesced int32 = -1

// Matrix is a dense row-major float64 payload. Enc selects its on-wire
// representation; in memory the values are always float64, so compute
// code never sees an encoding.
type Matrix struct {
	Rows, Cols int
	Data       []float64
	Enc        Encoding
}

// sizeOf is the single source of truth for frame sizes: EncodedSize and
// AppendFrame both account bytes through it, so the size computation and
// the writer can never silently drift. The
// returned size includes the 4-byte length prefix.
func sizeOf(m *Message) int {
	// type(1) + layer(4) + expert(4) + seq(8) + textLen(4)+text +
	// ntensors(4), then per tensor rows(4)+cols(4)+encoding(1)+payload.
	body := 1 + 4 + 4 + 8 + 4 + len(m.Text) + 4
	for i := range m.Tensors {
		t := &m.Tensors[i]
		body += 9 + t.Enc.payloadBytes(t.Rows, len(t.Data))
	}
	return 4 + body
}

// EncodedSize returns the full frame size (length prefix included) that
// AppendFrame would produce for m, without allocating. Observability
// hooks use it to account frame bytes on the hot path; an invalid tensor
// geometry (which the encoders reject) still yields the nominal size.
func EncodedSize(m *Message) int { return sizeOf(m) }

// validateTensors rejects the messages the encoders refuse to frame: a
// matrix whose Rows×Cols disagrees with its data length (silently
// encoding it would hand the peer an undecodable frame) or an unknown
// encoding.
func validateTensors(m *Message) error {
	for i := range m.Tensors {
		t := &m.Tensors[i]
		if t.Rows*t.Cols != len(t.Data) {
			return fmt.Errorf("wire: tensor %d is %dx%d with %d values", i, t.Rows, t.Cols, len(t.Data))
		}
		if !t.Enc.valid() {
			return fmt.Errorf("wire: tensor %d has unknown encoding %d", i, t.Enc)
		}
	}
	return nil
}

// ErrFrameTooLarge guards against corrupted length prefixes.
var ErrFrameTooLarge = errors.New("wire: frame exceeds size limit")

// MaxFrameSize bounds a single frame (1 GiB); real batches are far
// smaller.
const MaxFrameSize = 1 << 30

// AppendFrame appends the complete frame for m (length prefix included)
// to dst and returns the extended slice — the destination-passing encoder
// of the hot path: with a reused dst of sufficient capacity it performs
// zero allocations. Invalid tensor geometry is reported as an error with
// dst unchanged.
func AppendFrame(dst []byte, m *Message) ([]byte, error) {
	if err := validateTensors(m); err != nil {
		return dst, err
	}
	total := sizeOf(m)
	dst = slices.Grow(dst, total)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(total-4))
	dst = appendHeader(dst, m)
	for i := range m.Tensors {
		dst = appendTensor(dst, &m.Tensors[i])
	}
	return dst, nil
}

// appendHeader appends the structural message header (everything between
// the length prefix and the first tensor). dst must have capacity.
func appendHeader(dst []byte, m *Message) []byte {
	dst = append(dst, byte(m.Type))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(m.Layer))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(m.Expert))
	dst = binary.LittleEndian.AppendUint64(dst, m.Seq)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(m.Text)))
	dst = append(dst, m.Text...)
	return binary.LittleEndian.AppendUint32(dst, uint32(len(m.Tensors)))
}

// appendTensor appends one tensor block (header + encoded payload). dst
// must have capacity for the 9 + payload bytes appended.
func appendTensor(dst []byte, t *Matrix) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(t.Rows))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(t.Cols))
	dst = append(dst, byte(t.Enc))
	switch t.Enc {
	case EncFP16:
		return appendFP16Payload(dst, t.Data)
	case EncInt8:
		return appendInt8Payload(dst, t.Data, t.Rows, t.Cols)
	}
	return AppendFloat64s(dst, t.Data)
}

// AppendFloat64s appends the values little-endian, eight at a time (the
// bulk loop keeps the bounds check and the Float64bits conversion off the
// per-value critical path), growing dst only when it lacks the capacity
// (the frame encoders pre-size it). The repository's one float64 block
// writer: fp64 tensor payloads here, every format in internal/checkpoint.
func AppendFloat64s(dst []byte, vals []float64) []byte {
	off := len(dst)
	dst = slices.Grow(dst, 8*len(vals))[:off+8*len(vals)]
	i := 0
	for ; i+8 <= len(vals); i += 8 {
		b := dst[off+8*i : off+8*i+64]
		binary.LittleEndian.PutUint64(b, math.Float64bits(vals[i]))
		binary.LittleEndian.PutUint64(b[8:], math.Float64bits(vals[i+1]))
		binary.LittleEndian.PutUint64(b[16:], math.Float64bits(vals[i+2]))
		binary.LittleEndian.PutUint64(b[24:], math.Float64bits(vals[i+3]))
		binary.LittleEndian.PutUint64(b[32:], math.Float64bits(vals[i+4]))
		binary.LittleEndian.PutUint64(b[40:], math.Float64bits(vals[i+5]))
		binary.LittleEndian.PutUint64(b[48:], math.Float64bits(vals[i+6]))
		binary.LittleEndian.PutUint64(b[56:], math.Float64bits(vals[i+7]))
	}
	for ; i < len(vals); i++ {
		binary.LittleEndian.PutUint64(dst[off+8*i:], math.Float64bits(vals[i]))
	}
	return dst
}

// DecodeFloat64s expands 8·len(dst) little-endian bytes of src into dst,
// eight values at a time — AppendFloat64s' inverse and the one block
// reader. The caller bounds len(dst) by len(src)/8 before allocating dst.
func DecodeFloat64s(src []byte, dst []float64) {
	i := 0
	for ; i+8 <= len(dst); i += 8 {
		b := src[8*i : 8*i+64]
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b))
		dst[i+1] = math.Float64frombits(binary.LittleEndian.Uint64(b[8:]))
		dst[i+2] = math.Float64frombits(binary.LittleEndian.Uint64(b[16:]))
		dst[i+3] = math.Float64frombits(binary.LittleEndian.Uint64(b[24:]))
		dst[i+4] = math.Float64frombits(binary.LittleEndian.Uint64(b[32:]))
		dst[i+5] = math.Float64frombits(binary.LittleEndian.Uint64(b[40:]))
		dst[i+6] = math.Float64frombits(binary.LittleEndian.Uint64(b[48:]))
		dst[i+7] = math.Float64frombits(binary.LittleEndian.Uint64(b[56:]))
	}
	for ; i < len(dst); i++ {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
	}
}

// decodeBody parses one frame body into m, drawing tensor payloads from
// the codec pools (it is DecodePooled's body); every header field is
// bounds-checked against the remaining body before anything is allocated.
func decodeBody(m *Message, body []byte) error {
	if len(body) < 25 {
		return fmt.Errorf("wire: frame body too short (%d bytes)", len(body))
	}
	off := 0
	m.Type = MsgType(body[off])
	off++
	m.Layer = int32(binary.LittleEndian.Uint32(body[off:]))
	off += 4
	m.Expert = int32(binary.LittleEndian.Uint32(body[off:]))
	off += 4
	m.Seq = binary.LittleEndian.Uint64(body[off:])
	off += 8
	textLen := int(binary.LittleEndian.Uint32(body[off:]))
	off += 4
	if textLen < 0 || off+textLen > len(body) {
		return fmt.Errorf("wire: text length %d overruns frame", textLen)
	}
	m.Text = string(body[off : off+textLen])
	off += textLen
	if off+4 > len(body) {
		return errors.New("wire: truncated tensor count")
	}
	nT := int(binary.LittleEndian.Uint32(body[off:]))
	off += 4
	m.Tensors = m.Tensors[:0]
	for i := 0; i < nT; i++ {
		if off+8 > len(body) {
			return errors.New("wire: truncated tensor header")
		}
		rows := int(binary.LittleEndian.Uint32(body[off:]))
		off += 4
		cols := int(binary.LittleEndian.Uint32(body[off:]))
		off += 4
		if off >= len(body) {
			return errors.New("wire: truncated tensor encoding byte")
		}
		encByte := body[off]
		off++
		if encByte >= numEncodings {
			return fmt.Errorf("wire: tensor %d has unknown encoding %d", i, encByte)
		}
		enc := Encoding(encByte)
		// Validate the header against the remaining body BEFORE computing
		// rows*cols or allocating: a hostile frame can carry rows/cols
		// near 2^31 whose product (or its width-scaled byte count)
		// overflows int and would otherwise slip past the bound check or
		// trigger a multi-GiB allocation. Each dimension is capped against
		// the remaining bytes first, so the product check cannot overflow.
		rem := len(body) - off
		if rows < 0 || cols < 0 {
			return fmt.Errorf("wire: tensor %d (%dx%d) overruns frame", i, rows, cols)
		}
		if enc == EncInt8 {
			// The per-row scale block precedes the values; account it
			// before bounding the value count.
			if rows > rem/8 {
				return fmt.Errorf("wire: tensor %d (%dx%d) overruns frame", i, rows, cols)
			}
			rem -= 8 * rows
		}
		width := enc.BitsPerValue() / 8
		maxVals := rem / width
		if rows > 0 && cols > 0 && (cols > maxVals || rows > maxVals/cols) {
			return fmt.Errorf("wire: tensor %d (%dx%d) overruns frame", i, rows, cols)
		}
		n := rows * cols
		data := getFloats(n)
		switch enc {
		case EncFP16:
			HalfDecode(body[off:off+2*n], data)
			off += 2 * n
		case EncInt8:
			decodeInt8Payload(body[off:off+8*rows+n], data, rows, cols)
			off += 8*rows + n
		default:
			DecodeFloat64s(body[off:off+8*n], data)
			off += 8 * n
		}
		m.Tensors = append(m.Tensors, Matrix{Rows: rows, Cols: cols, Data: data, Enc: enc})
	}
	if off != len(body) {
		return fmt.Errorf("wire: %d trailing bytes in frame", len(body)-off)
	}
	return nil
}
