package conform

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/protocol/dvscore"
	"repro/internal/protocol/mcastcore"
	"repro/internal/protocol/tocore"
	"repro/internal/types"
	"repro/internal/wire"
)

// The chunked on-disk trace format. A trace is a directory of segment
// files:
//
//	header.seg            format version + per-node core construction
//	                      parameters (NodeMeta)
//	chunk-00000001.seg    one window of macro-steps per node and layer
//	chunk-00000002.seg    (dvs, to, mcast), with the node-local start
//	...                   offsets of the window and a quiescence mark for
//	                      the cut that closed it
//	footer.seg            streamFooter: chunk count + per-node step totals,
//	                      written last — its presence seals the trace
//
// Every segment is written to a temporary file in the same directory,
// fsynced, and renamed into place, so a crash at any point leaves either a
// complete segment or none: the sealed prefix of a torn trace is always
// replayable. Every payload is framed by a magic string, an explicit
// length, and a CRC so torn or foreign files are detected rather than
// misparsed. Every payload is the stateless binary codec of wire.go; chunk
// records are encoded one by one on the observing event loop and written by
// one goroutine (see segWriter) so neither encoding nor fsync runs under the
// recorder's mutex.
//
// The recorder shared by all nodes of a run serializes every record under
// one mutex. That linearization is what makes chunk boundaries consistent
// cuts: every cross-node dependence at the recorded interface (a message
// received was recorded as sent first; a safe indication follows the
// recorded receipt at every member) passes through a real-time chain whose
// endpoints are records, so a boundary can never capture an effect without
// its cause. See DESIGN.md §6.8 for the full argument.

const (
	segMagic      = "DVSSEG1\n"
	streamVersion = 4 // summaries carry base and digest, TO logs open with EvUniverse; 1 and 2 had gob headers
	headerSeg     = "header.seg"
	footerSeg     = "footer.seg"

	// Defaults for StreamOptions (16384 steps: ≈ 11 ms at saturation, §6.8).
	defaultWindowSteps = 16384
	defaultWindowBytes = 4 << 20

	// earlyCutSteps is the window at which a chunk is cut ahead of the
	// thresholds when the writer has room for it. It is what makes the
	// chunk size follow the disk: each segment costs two fsyncs whatever its
	// size, so a writer that keeps up gets chunks this small, and one that
	// falls behind finds a larger window waiting — fewer, bigger segments —
	// before any observer has to stall for it at the thresholds.
	earlyCutSteps = 4096

	// Windows are buffered in blocks of blockSize bytes, which records may
	// straddle. poolBlocks bounds the written-out blocks the writer keeps: the
	// steady working set, the open window and the one in flight at
	// earlyCutSteps records of ≈ 128 bytes (fabric_recorded's 1.6 kB per
	// message in 12 steps), plus one partial block for each of up to 16
	// (node, layer) buffers — 80 blocks, 1.25 MiB. A full pool drops a block.
	blockSize  = 16 << 10
	poolBlocks = 2*earlyCutSteps*128/blockSize + 16
)

func chunkSeg(seq int) string { return fmt.Sprintf("chunk-%08d.seg", seq) }

// chunkPart is one node's slice of a decoded chunk: the records buffered
// between two cuts, plus each layer's start offset in the node's full log
// (so the reader can verify the chunks are gap-free and the engine can index
// divergences globally).
type chunkPart struct {
	P     types.ProcID
	Start [numLayers]int
	DVS   []DVSRecord
	TO    []TORecord
	Mcast []McastRecord
}

func (p *chunkPart) counts() [numLayers]int {
	return [numLayers]int{len(p.DVS), len(p.TO), len(p.Mcast)}
}

type streamChunk struct {
	Seq       int // 1-based, contiguous
	Quiescent bool
	Parts     []chunkPart // one per node, sorted by P
}

type nodeTotal struct {
	P     types.ProcID
	Steps [numLayers]int
}

type streamFooter struct {
	Chunks int
	Totals []nodeTotal // sorted by P
}

// writeSegment atomically and durably writes one header or footer segment.
func writeSegment(path string, payload []byte) error {
	if err := writeFramed(path, bufio.NewWriter(nil), bytes.NewReader(payload)); err != nil {
		return err
	}
	syncDir(filepath.Dir(path))
	return nil
}

// writeFramed atomically writes one segment: magic + length + payload + CRC
// through bw to a temp file in the target directory, fsync, rename. body
// streams the payload, summed on the way; its length fills its slot last. A
// failure at any point leaves no partial file at path. The rename is durable
// once the directory is synced (syncDir), which is left to the caller: one
// directory sync covers every rename before it.
func writeFramed(path string, bw *bufio.Writer, body io.WriterTo) (err error) {
	f, err := os.CreateTemp(filepath.Dir(path), ".seg-*.tmp")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(f.Name())
		}
	}()
	var frame [8]byte
	bw.Reset(f)
	bw.WriteString(segMagic)
	bw.Write(frame[:]) // the length's slot
	crc := crc32.NewIEEE()
	n, _ := body.WriteTo(io.MultiWriter(bw, crc)) // a failed write is bw's, and sticks until Flush
	bw.Write(crc.Sum(frame[:0]))
	if err = bw.Flush(); err != nil {
		return err
	}
	if _, err = f.WriteAt(binary.BigEndian.AppendUint64(frame[:0], uint64(n)), int64(len(segMagic))); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	return os.Rename(f.Name(), path)
}

// readSegment reads and verifies one segment and decodes its payload.
func readSegment[T any](path string, decode func([]byte) (T, error)) (T, error) {
	payload, err := readFramed(path)
	if err != nil {
		var zero T
		return zero, err
	}
	v, err := decode(payload)
	if err != nil {
		return v, fmt.Errorf("conform: %s: %w", filepath.Base(path), err)
	}
	return v, nil
}

// readFramed reads one segment and returns its verified payload. A missing
// file surfaces as os.ErrNotExist; any framing or checksum failure is an
// explicit corruption error.
func readFramed(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) < len(segMagic) || string(data[:len(segMagic)]) != segMagic {
		return nil, fmt.Errorf("conform: %s: not a trace segment", filepath.Base(path))
	}
	body := data[len(segMagic):]
	if len(body) < 8+4 {
		return nil, fmt.Errorf("conform: %s: truncated segment (%d bytes after the magic)", filepath.Base(path), len(body))
	}
	n := binary.BigEndian.Uint64(body[:8])
	body = body[8:]
	if uint64(len(body)) != n+4 {
		return nil, fmt.Errorf("conform: %s: truncated segment (%d of %d payload bytes)",
			filepath.Base(path), len(body), n+4)
	}
	payload, sum := body[:n], binary.BigEndian.Uint32(body[n:])
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, fmt.Errorf("conform: %s: segment checksum mismatch", filepath.Base(path))
	}
	return payload, nil
}

// syncDir best-effort fsyncs a directory so a rename survives a crash; not
// every platform supports syncing directories, so errors are ignored.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// StreamOptions bound the recorder's in-memory window. A cut is taken as
// soon as either threshold is reached (and from earlyCutSteps on whenever
// the writer is free to take it), so recorder memory is three windows and
// poolBlocks spare blocks at most, regardless of run length.
type StreamOptions struct {
	// WindowSteps cuts a chunk after this many buffered macro-steps summed
	// over all nodes and layers (default 16384).
	WindowSteps int
	// WindowBytes cuts a chunk once the buffered records' encoded size
	// reaches this many bytes (default 4 MiB).
	WindowBytes int
}

func (o StreamOptions) withDefaults() StreamOptions {
	if o.WindowSteps <= 0 {
		o.WindowSteps = defaultWindowSteps
	}
	if o.WindowBytes <= 0 {
		o.WindowBytes = defaultWindowBytes
	}
	return o
}

// StreamRecorder spills the macro-step traces of a whole run to a chunked
// on-disk trace. One recorder is shared by every node of the run: the
// shared mutex linearizes all records, which is what makes each chunk
// boundary a consistent cut (see the format comment above). Register each
// node with Node before any observer fires; Close after every node has
// stopped to write the final quiescent cut and the sealing footer.
type StreamRecorder struct {
	dir   string   // where the writer puts segments; "" for an in-process checker
	check *checker // where its writer puts chunks instead (NewOnlineChecker); else nil
	opts  StreamOptions

	// beforeWrite, when set before the first cut, runs on the writer
	// goroutine ahead of each chunk write. Tests use it to stall the writer.
	beforeWrite func(job *chunkJob)

	mu      sync.Mutex
	nodes   []*StreamNode // sorted by P
	byP     map[types.ProcID]*StreamNode
	started bool // header written; registration closed
	closed  bool
	seq     int        // chunks handed to the writer
	cut     int        // records in them
	steps   int        // records buffered since the last cut
	bytes   int        // their encoded size
	peak    int        // high-water mark of steps (the window bound's witness)
	stalls  uint64     // cuts that found the writer's queue full and waited for it
	w       *segWriter // started at the first cut, drained by Close
	err     error
}

// StreamNode buffers one node's records into the shared recorder. Install
// ObserveDVS/ObserveTO as the dvsg and tob layers' observers, ObserveMcast as
// the multicast coordinator's.
type StreamNode struct {
	r    *StreamRecorder
	meta NodeMeta
	// scratch is where a record is encoded before the mutex is taken. A
	// node's observers never run concurrently (a stack's two run on its event
	// loop, a coordinator's under its mutex), so one buffer serves them all.
	scratch []byte
	win     [numLayers]layerBuf // the open window; guarded by r.mu
}

// NewStreamRecorder creates the trace directory (if needed) and a recorder
// writing into it. Segments of a previous trace in the directory are
// removed first — chunks past the new footer would otherwise read as a gap
// in the new trace — and a directory holding anything that is not a trace
// segment is refused rather than recorded over.
func NewStreamRecorder(dir string, opts StreamOptions) (*StreamRecorder, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := removeStaleSegments(dir); err != nil {
		return nil, err
	}
	return &StreamRecorder{
		dir:  dir,
		opts: opts.withDefaults(),
		byP:  make(map[types.ProcID]*StreamNode),
	}, nil
}

// removeStaleSegments deletes a previous trace's *.seg files and orphaned
// .seg-*.tmp files from dir. The footer goes first, so a crash mid-cleanup
// cannot leave a trace that looks sealed over missing chunks.
func removeStaleSegments(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	stale := make([]string, 0, len(entries))
	for _, e := range entries {
		name := e.Name()
		tmp, _ := filepath.Match(".seg-*.tmp", name)
		if !e.Type().IsRegular() || !(tmp || strings.HasSuffix(name, ".seg")) {
			return fmt.Errorf("conform: trace directory %s holds %q, which is not a trace segment: refusing to record over it", dir, name)
		}
		if name == footerSeg {
			stale = append([]string{name}, stale...)
		} else {
			stale = append(stale, name)
		}
	}
	for _, name := range stale {
		if err := os.Remove(filepath.Join(dir, name)); err != nil {
			return fmt.Errorf("conform: clearing previous trace: %w", err)
		}
	}
	if len(stale) > 0 {
		syncDir(dir)
	}
	return nil
}

// Dir returns the trace directory.
func (r *StreamRecorder) Dir() string { return r.dir }

// Node registers one protocol stack of the run with its core construction
// parameters. g tags the stack with its group (0 in single-group runs); a
// stream must be group-homogeneous — each group's run is an independent
// total order, so sharded runs keep one stream per group. static marks a
// node whose view filter is the static-primary core (dvscore.StaticNode)
// rather than the paper's DVS automaton; the replayer re-executes its DVS-layer records
// through that core instead. All nodes must register before the first record
// is spilled (registration defines the header, which is written once).
func (r *StreamRecorder) Node(p types.ProcID, g types.GroupID, initial types.View, inP0, register, gc, static bool) (*StreamNode, error) {
	return r.register(NodeMeta{
		P: p, Group: g, Initial: initial, InP0: inP0, Register: register, GC: gc, Static: static,
	})
}

// McastNode registers process p's multicast coordinator over groups. A
// stream holds either stacks or coordinators, never both: a sharded run
// keeps its multicast stream beside the per-group ones (see McastDir).
func (r *StreamRecorder) McastNode(p types.ProcID, groups []types.GroupID) (*StreamNode, error) {
	return r.register(NodeMeta{P: p, McastGroups: types.DedupGroups(append([]types.GroupID{}, groups...))})
}

func (r *StreamRecorder) register(meta NodeMeta) (*StreamNode, error) {
	p := meta.P
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.started || r.closed {
		return nil, fmt.Errorf("conform: stream node %s registered after the header was written", p)
	}
	if _, dup := r.byP[p]; dup {
		return nil, fmt.Errorf("conform: duplicate stream node %s", p)
	}
	sn := &StreamNode{r: r, meta: meta}
	r.byP[p] = sn
	r.nodes = append(r.nodes, sn)
	sort.Slice(r.nodes, func(i, j int) bool { return r.nodes[i].meta.P < r.nodes[j].meta.P })
	return sn, nil
}

// Cut forces a chunk boundary now. quiescent marks the cut as one where the
// caller guarantees the whole system is idle at the recorded interface (no
// messages or safe indications in flight between cores) — the stream
// replayer runs the full cross-node invariant suite at quiescent cuts, and
// only the per-node checks elsewhere. A non-quiescent Cut with nothing
// buffered is a no-op.
func (r *StreamRecorder) Cut(quiescent bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	if r.steps == 0 && !quiescent {
		return
	}
	r.cutLocked(quiescent)
}

// Close hands the final cut (quiescent: every node has stopped) to the
// writer, waits for the writer to drain and exit, writes the sealing
// footer — an in-process checker runs the engine's end-of-trace checks
// instead — and returns the first error encountered over the stream's
// lifetime. Close is idempotent.
func (r *StreamRecorder) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return r.err
	}
	r.closed = true
	if r.steps > 0 {
		r.cutLocked(true)
	}
	if !r.started {
		r.writeHeaderLocked()
	}
	if w := r.w; w != nil {
		// The writer never takes r.mu, so waiting for it here cannot deadlock.
		close(w.q)
		<-w.done
		if r.err == nil {
			r.err = w.err
		}
		r.w = nil
	}
	if r.err == nil && r.check != nil {
		r.check.end()
	} else if r.err == nil {
		ft := streamFooter{Chunks: r.seq}
		for _, sn := range r.nodes {
			tot := nodeTotal{P: sn.meta.P}
			for l, lb := range sn.win {
				tot.Steps[l] = lb.start
			}
			ft.Totals = append(ft.Totals, tot)
		}
		r.err = writeSegment(filepath.Join(r.dir, footerSeg), appendFooter(nil, ft))
	}
	return r.err
}

// Err returns the sticky first error (nil while healthy): a failed segment
// write, or a record the codec could not encode. Records observed after an
// error are dropped; the sealed prefix on disk stays valid.
func (r *StreamRecorder) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.err == nil && r.w != nil {
		select {
		case <-r.w.done:
			r.err = r.w.err
		default:
		}
	}
	return r.err
}

// PeakWindowSteps returns the high-water mark of buffered macro-steps — the
// witness that the open window stayed bounded: it can never exceed the
// steps threshold plus one in-flight record per node.
func (r *StreamRecorder) PeakWindowSteps() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.peak
}

func (r *StreamRecorder) writeHeaderLocked() {
	metas := make([]NodeMeta, len(r.nodes))
	for i, sn := range r.nodes {
		metas[i] = sn.meta
	}
	var err error
	if c := r.check; c == nil {
		err = writeSegment(filepath.Join(r.dir, headerSeg), appendHeader(nil, metas))
	} else if c.e = newReplayer(&c.rep, metas); c.e == nil {
		err = fmt.Errorf("conform: online checker: %s", c.rep.Malformed[0])
	}
	if err != nil && r.err == nil {
		r.err = err
	}
	r.started = true
}

// cutLocked moves every node's open-window blocks into a chunkJob and
// queues it for the writer. The send happens under the mutex on purpose: it
// keeps jobs in sequence order, and when the writer is a full chunk behind
// it stalls every observer — backpressure that bounds the blocks in use at
// the open window plus one queued and one in-flight chunk, instead of
// dropping records or leaving a gap.
func (r *StreamRecorder) cutLocked(quiescent bool) {
	if !r.started {
		r.writeHeaderLocked()
	}
	if r.err != nil {
		return
	}
	if r.w == nil {
		r.w = startSegWriter(r.dir, r.check, r.beforeWrite)
	}
	job := &chunkJob{seq: r.seq + 1, quiescent: quiescent, parts: make([]partBuf, len(r.nodes))}
	for i, sn := range r.nodes {
		job.parts[i].p = sn.meta.P
		for l, lb := range sn.win {
			// Sized like this window's, so the next one's records do not grow it.
			job.parts[i].layers[l], sn.win[l] = lb, layerBuf{start: lb.start + lb.count, blocks: make([][]byte, 0, len(lb.blocks))}
		}
	}
	r.cut, r.steps, r.bytes = r.cut+r.steps, 0, 0
	if len(r.w.q) == cap(r.w.q) {
		r.stalls++
	}
	select {
	case r.w.q <- job:
		r.seq = job.seq
	case <-r.w.done:
		r.err = r.w.err
	}
}

// record appends one encoded record to lb (a layer buffer of the observing
// node's open window) and cuts when a threshold is hit. The bytes are
// copied, so the caller may reuse rec.
func (r *StreamRecorder) record(lb *layerBuf, rec []byte, encErr error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed || r.err != nil {
		return
	}
	if encErr != nil {
		r.err = encErr
		return
	}
	lb.write(rec, r.w)
	r.steps++
	r.bytes += len(rec)
	if r.steps > r.peak {
		r.peak = r.steps
	}
	// A full window is cut even if that means waiting for the writer; an
	// early one only into an empty queue, which stays empty until this cut
	// fills it (only cutters send, and they hold the mutex), so it never waits.
	if r.steps >= r.opts.WindowSteps || r.bytes >= r.opts.WindowBytes ||
		r.steps >= earlyCutSteps && (r.w == nil || len(r.w.q) == 0) {
		r.cutLocked(false)
	}
}

// ObserveDVS records one VS-TO-DVS macro-step; install as the dvsg layer's
// observer. Encoding is the copy: the record is serialized before the
// recorder's mutex is taken, and nothing of ev or fx is retained.
func (sn *StreamNode) ObserveDVS(ev dvscore.Event, fx []dvscore.Effect) {
	var err error
	sn.scratch, err = dvsCodec.append(sn.scratch[:0], ev, fx)
	sn.r.record(&sn.win[layerDVS], sn.scratch, err)
}

// ObserveTO records one DVS-TO-TO macro-step; install as the tob layer's
// observer.
func (sn *StreamNode) ObserveTO(ev tocore.Event, fx []tocore.Effect) {
	var err error
	sn.scratch, err = toCodec.append(sn.scratch[:0], ev, fx)
	sn.r.record(&sn.win[layerTO], sn.scratch, err)
}

// ObserveMcast records one multicast macro-step; install as the coordinator's
// observer (mcast.Coordinator.AddObserver). It runs with the coordinator
// mutex held, so records keep core execution order.
func (sn *StreamNode) ObserveMcast(ev mcastcore.Event, fx []mcastcore.Effect) {
	var err error
	sn.scratch, err = mcastCodec.append(sn.scratch[:0], ev, fx)
	sn.r.record(&sn.win[layerMcast], sn.scratch, err)
}

// layerBuf is one node's encoded records of one layer since the last cut:
// their start offset in the node's full per-layer log, how many there are,
// and their concatenated encodings, size bytes in blocks of blockSize.
type layerBuf struct {
	start, count, size int
	blocks             [][]byte
}

// write appends one record, taking a block from w's pool when the last is full.
func (lb *layerBuf) write(rec []byte, w *segWriter) {
	lb.count++
	lb.size += len(rec)
	for len(rec) > 0 {
		k := len(lb.blocks) - 1
		if k < 0 || len(lb.blocks[k]) == blockSize {
			lb.blocks, k = append(lb.blocks, w.block()), k+1
		}
		n := min(len(rec), blockSize-len(lb.blocks[k]))
		lb.blocks[k], rec = append(lb.blocks[k], rec[:n]...), rec[n:]
	}
}

type partBuf struct {
	p      types.ProcID
	layers [numLayers]layerBuf
}

// chunkJob is one cut window on its way to disk: encoded bytes only, so the
// writer goroutine never sees a core or a live record.
type chunkJob struct {
	seq       int
	quiescent bool
	parts     []partBuf // one per node, sorted by p
}

// WriteTo writes the chunk payload piece by piece: seq, the quiescence mark,
// the part count, then per part the process id and each layer's (start,
// count, byteLen) ahead of its blocks — the one chunk encoder, for the disk
// and a checker. Errors are the sinks' (bufio's stick until Flush).
func (job *chunkJob) WriteTo(w io.Writer) (int64, error) {
	pre := wire.AppendCount(wire.AppendBool(wire.AppendCount(make([]byte, 0, 64), job.seq), job.quiescent), len(job.parts))
	w.Write(pre)
	n, pre := len(pre), pre[:0]
	for i := range job.parts {
		pre = wire.AppendInt(pre, int(job.parts[i].p))
		for _, lb := range job.parts[i].layers {
			pre = wire.AppendCount(wire.AppendCount(wire.AppendCount(pre, lb.start), lb.count), lb.size)
			w.Write(pre)
			for _, b := range lb.blocks {
				w.Write(b)
			}
			n, pre = n+len(pre)+lb.size, pre[:0]
		}
	}
	return int64(n), nil
}

// segWriter is the one goroutine that puts chunks on disk — or through an
// in-process checker's engine — strictly in the order they were cut. It sees
// encoded bytes only.
type segWriter struct {
	dir   string
	check *checker // replays each chunk instead of writing it; nil with a dir
	hook  func(job *chunkJob)
	q     chan *chunkJob // depth 1: one chunk queued while one is being written
	pool  chan []byte    // written-out blocks, at most poolBlocks
	done  chan struct{}  // closed when run returns
	err   error          // why run returned early; read only after done
}

func startSegWriter(dir string, check *checker, hook func(job *chunkJob)) *segWriter {
	w := &segWriter{
		dir:   dir,
		check: check,
		hook:  hook,
		q:     make(chan *chunkJob, 1),
		pool:  make(chan []byte, poolBlocks),
		done:  make(chan struct{}),
	}
	// Handed encoded bytes, never a live core or record; a checker steps only its own shadow cores.
	go w.run()
	return w
}

// run writes — or, for a checker, replays — jobs until q is closed (Close) or
// one fails. A failure sets err and ends the writer, which cutters and Err
// observe through done; done closing with err nil happens only after Close
// closed q.
func (w *segWriter) run() {
	defer close(w.done)
	bw := bufio.NewWriterSize(nil, 64<<10) // reused across chunks
	for job := range w.q {
		if w.hook != nil {
			w.hook(job)
		}
		if w.check != nil {
			w.err = w.check.window(job)
		} else if err := writeFramed(filepath.Join(w.dir, chunkSeg(job.seq)), bw, job); err != nil {
			w.err = fmt.Errorf("conform: write chunk %d: %w", job.seq, err)
			syncDir(w.dir)
		} else if len(w.q) == 0 {
			// A directory sync makes every earlier rename durable, so while the
			// next chunk is already waiting, its sync will cover this one: a
			// writer that is behind pays one fsync per chunk instead of two.
			syncDir(w.dir)
		}
		w.release(job)
		if w.err != nil {
			return
		}
	}
}

// block returns an empty block: a written-out one if the pool has one, else
// a fresh one (the first window's, or a window's past the pool's bound).
func (w *segWriter) block() []byte {
	if w != nil && len(w.pool) > 0 { // only record receives, under the recorder's mutex
		return <-w.pool
	}
	return make([]byte, 0, blockSize)
}

// release hands a written job's blocks to the pool (a full one drops them) and forgets them.
func (w *segWriter) release(job *chunkJob) {
	for i := range job.parts {
		for l, lb := range job.parts[i].layers {
			for _, b := range lb.blocks {
				if len(w.pool) < cap(w.pool) { // only this goroutine sends
					w.pool <- b[:0]
				}
			}
			job.parts[i].layers[l].blocks = nil
		}
	}
}
