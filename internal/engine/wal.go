package engine

// Write-ahead logging for the durable disk tier. The unit of durability
// is the acknowledged ingest row: by the time Append/AppendRow/Insert
// returns (or a Writer chunk is pushed), the row has been written to the
// shard's WAL file, so a SIGKILL between acknowledgement and the batch
// applier's drain loses nothing — recovery replays the staged-but-
// unapplied suffix of the log through the exact same ApplyBatch path the
// applier would have taken. Every record is a block of staged chunk rows,
// appended under the shard's staging mutex (Insert's one-row chunk
// included), so record seqs follow the order drains apply rows and a
// replay in seq order rebuilds the state the live table served.
//
// Layout: each shard owns a sequence of generation files
// (shardNN-GGGGGG.wal) in the table's segment directory. A generation
// starts with an 8-byte magic and then holds framed records:
//
//	frame:   payloadLen uint32 LE | crc32(payload) uint32 LE | payload
//	payload: walSeq uvarint | nrows uvarint | ncols uvarint
//	         per row: len(entityID) uvarint + bytes
//	                  len(sourceName) uvarint + bytes
//	                  per column: state byte (stagedMissing/Null/Value),
//	                  then for stagedValue a typed value — float64 LE
//	                  bits, uvarint-len string bytes, or one bool byte
//
// Records carry source NAMES (not table-local interned IDs) so a log is
// replayable into a fresh intern registry. walSeq is a per-shard
// monotonic record number; the shard checkpoint persists the highest
// seq known applied, and recovery replays only records above it.
//
// Torn-tail policy: a crash can leave a partially written frame at the
// end of the active generation. Readers stop at the first frame whose
// length, checksum or payload fails to decode and drop the remainder of
// THAT generation (later generations are still read — a generation can
// only end torn if it was the active file when the process died, or if
// an append error forced a rotation, and in both cases the lost suffix
// was never acknowledged as durable). Appends never continue a file
// that may end torn: recovery always starts a fresh generation.
//
// Checkpointing: after a seal persists rows into segments (and the
// shard checkpoint file records it), fully-applied closed generations
// are deleted; the active generation is truncated in place when all its
// records are applied, else rotated so the next checkpoint can delete
// it. fsync cadence is configurable (StorageConfig.WALSync): the
// write() reaching the kernel is enough to survive SIGKILL, fsync only
// matters for power/OS loss.

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

const (
	walMagic  = "UUWALv1\x00"
	ckptMagic = "UUCKPv1\x00"
	// defaultWALSyncRecords is the fsync cadence when StorageConfig.WALSync
	// is zero.
	defaultWALSyncRecords = 64
	// defaultCompactSegments is the compaction trigger when
	// StorageConfig.CompactSegments is zero.
	defaultCompactSegments = 8
	// maxWALPayload bounds a single record frame; anything larger is
	// treated as corruption (the largest legitimate record is one staging
	// chunk).
	maxWALPayload = 1 << 28
	manifestName  = "MANIFEST.json"
)

// resolvedWALSync maps the StorageConfig knob to a concrete cadence:
// 0 -> default, negative -> never fsync.
func resolvedWALSync(cfg int) int {
	if cfg == 0 {
		return defaultWALSyncRecords
	}
	if cfg < 0 {
		return 0
	}
	return cfg
}

// resolvedCompactEvery maps StorageConfig.CompactSegments to a concrete
// trigger: 0 -> default, negative -> disabled.
func resolvedCompactEvery(cfg int) int {
	if cfg == 0 {
		return defaultCompactSegments
	}
	if cfg < 0 {
		return 0
	}
	return cfg
}

// walGen is one closed generation file still on disk.
type walGen struct {
	gen    int
	maxSeq uint64 // highest record seq in the file (0 = no records)
}

// walShard is one shard's log. Its mutex is a leaf in the lock order
// (staging mu or shard mu -> walShard.mu); it serializes seq assignment
// with the file append so the on-disk record order matches seq order.
type walShard struct {
	mu        sync.Mutex
	dir       string
	si        int
	syncEvery int // records per fsync; 0 = never

	f        *os.File // active generation, nil until first append
	gen      int
	size     int64  // current file size (offset of next frame)
	seq      uint64 // last assigned record seq
	fileSeq  uint64 // last seq in the active file (0 = empty)
	unsynced int
	gens     []walGen // closed generations, ascending
	buf      []byte   // frame scratch, reused across appends
	failed   bool     // a write tore the tail and could not be rolled back
}

// tableWAL is the per-table handle: one walShard per shard, sharing the
// table's segment directory.
type tableWAL struct {
	dir    string
	shards [numShards]walShard
}

func newTableWAL(dir string, walSync int) *tableWAL {
	tw := &tableWAL{dir: dir}
	cadence := resolvedWALSync(walSync)
	for si := range tw.shards {
		w := &tw.shards[si]
		w.dir = dir
		w.si = si
		w.syncEvery = cadence
	}
	return tw
}

func (tw *tableWAL) shard(si int) *walShard { return &tw.shards[si] }

// Close syncs and closes every active generation file. Idempotent.
func (tw *tableWAL) Close() error {
	var firstErr error
	for si := range tw.shards {
		w := &tw.shards[si]
		w.mu.Lock()
		if w.f != nil {
			if err := w.f.Sync(); err != nil && firstErr == nil {
				firstErr = err
			}
			if err := w.f.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
			w.f = nil
		}
		w.mu.Unlock()
	}
	return firstErr
}

func walGenPath(dir string, si, gen int) string {
	return filepath.Join(dir, fmt.Sprintf("shard%02d-%06d.wal", si, gen))
}

// ensureFile opens (creating with the magic header if needed) the active
// generation. Caller holds w.mu.
func (w *walShard) ensureFile() error {
	if w.f != nil {
		return nil
	}
	f, err := os.OpenFile(walGenPath(w.dir, w.si, w.gen), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	size := fi.Size()
	if size == 0 {
		if _, err := f.Write([]byte(walMagic)); err != nil {
			f.Close()
			return err
		}
		size = int64(len(walMagic))
	}
	w.f = f
	w.size = size
	return nil
}

// rotateLocked closes the active generation (recording its high seq) and
// moves to the next one. Caller holds w.mu.
func (w *walShard) rotateLocked() {
	if w.f != nil {
		w.f.Sync()
		w.f.Close()
		w.f = nil
	}
	w.gens = append(w.gens, walGen{gen: w.gen, maxSeq: w.fileSeq})
	w.gen++
	w.fileSeq = 0
	w.unsynced = 0
	w.size = 0
	w.failed = false
}

// appendFrame assigns the next record seq, frames the payload produced
// by encode (which appends to the passed buffer) and writes it to the
// active generation. On a write error the tail is rolled back (or the
// generation rotated away) so later appends stay readable, and the seq
// is not committed.
func (w *walShard) appendFrame(encode func(buf []byte, seq uint64) []byte) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.failed {
		w.rotateLocked()
	}
	if err := w.ensureFile(); err != nil {
		return 0, err
	}
	seq := w.seq + 1
	buf := append(w.buf[:0], 0, 0, 0, 0, 0, 0, 0, 0) // frame header placeholder
	buf = encode(buf, seq)
	payload := buf[8:]
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload))
	n, err := w.f.Write(buf)
	w.buf = buf[:0]
	if err != nil || n != len(buf) {
		// The file may now end in a torn frame. Try to cut it back to the
		// last good record; if even that fails, rotate so the torn tail is
		// confined to this (closed) generation.
		if terr := w.f.Truncate(w.size); terr != nil {
			w.failed = true
		}
		if err == nil {
			err = io.ErrShortWrite
		}
		return 0, fmt.Errorf("engine: wal shard %d append: %w", w.si, err)
	}
	w.size += int64(len(buf))
	w.seq = seq
	w.fileSeq = seq
	w.unsynced++
	if w.syncEvery > 0 && w.unsynced >= w.syncEvery {
		if err := w.f.Sync(); err != nil {
			return 0, fmt.Errorf("engine: wal shard %d sync: %w", w.si, err)
		}
		w.unsynced = 0
	}
	return seq, nil
}

// checkpoint releases log space covered by applied (the caller's durable
// safe watermark): fully-applied closed generations are deleted, and the
// active file is truncated in place when everything in it is applied,
// else rotated so the NEXT checkpoint can delete it.
func (w *walShard) checkpoint(applied uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	kept := w.gens[:0]
	for _, g := range w.gens {
		if g.maxSeq <= applied {
			os.Remove(walGenPath(w.dir, w.si, g.gen))
		} else {
			kept = append(kept, g)
		}
	}
	w.gens = kept
	if w.f == nil || w.fileSeq == 0 {
		return
	}
	if w.fileSeq <= applied && !w.failed {
		if err := w.f.Truncate(int64(len(walMagic))); err == nil {
			w.size = int64(len(walMagic))
			w.fileSeq = 0
			w.unsynced = 0
			return
		}
	}
	w.rotateLocked()
}

// appendChunkRows logs rows [lo, hi) of a staging chunk as one record.
// names is a source-ID -> name snapshot covering every src in the range.
func (tw *tableWAL) appendChunkRows(si int, schema Schema, names []string, c *obsChunk, lo, hi int) (uint64, error) {
	return tw.shards[si].appendFrame(func(buf []byte, seq uint64) []byte {
		buf = binary.AppendUvarint(buf, seq)
		buf = binary.AppendUvarint(buf, uint64(hi-lo))
		buf = binary.AppendUvarint(buf, uint64(len(schema)))
		for i := lo; i < hi; i++ {
			buf = appendWALString(buf, c.ids[i])
			buf = appendWALString(buf, names[c.srcs[i]])
			for ci := range schema {
				buf = appendWALCell(buf, &c.cols[ci], i)
			}
		}
		return buf
	})
}

func appendWALString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func appendWALCell(buf []byte, sc *stagedCol, row int) []byte {
	st := sc.state[row]
	buf = append(buf, st)
	if st != stagedValue {
		return buf
	}
	switch sc.typ {
	case TypeFloat:
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(sc.floats[row]))
	case TypeString:
		buf = appendWALString(buf, sc.strs[row])
	case TypeBool:
		b := byte(0)
		if sc.bools[row] {
			b = 1
		}
		buf = append(buf, b)
	}
	return buf
}

// walRecord is one decoded log record: a columnar block of rows with
// source names resolved (IDs are re-interned at replay).
type walRecord struct {
	seq  uint64
	n    int
	ids  []string
	srcs []string
	cols []stagedCol
}

// decodeWALRecord parses one frame payload against the schema.
func decodeWALRecord(payload []byte, schema Schema) (*walRecord, error) {
	r := walReader{b: payload}
	seq := r.uvarint()
	nrows := int(r.uvarint())
	ncols := int(r.uvarint())
	if r.err != nil {
		return nil, r.err
	}
	if nrows <= 0 || nrows > defaultBatchRows {
		return nil, fmt.Errorf("wal record: implausible row count %d", nrows)
	}
	if ncols != len(schema) {
		return nil, fmt.Errorf("wal record: %d columns, schema has %d", ncols, len(schema))
	}
	rec := &walRecord{
		seq:  seq,
		n:    nrows,
		ids:  make([]string, nrows),
		srcs: make([]string, nrows),
		cols: make([]stagedCol, ncols),
	}
	for ci := range schema {
		sc := &rec.cols[ci]
		sc.typ = schema[ci].Type
		sc.state = make([]byte, nrows)
		switch sc.typ {
		case TypeFloat:
			sc.floats = make([]float64, nrows)
		case TypeString:
			sc.strs = make([]string, nrows)
		case TypeBool:
			sc.bools = make([]bool, nrows)
		}
	}
	for i := 0; i < nrows; i++ {
		rec.ids[i] = r.str()
		rec.srcs[i] = r.str()
		if rec.ids[i] == "" || rec.srcs[i] == "" {
			if r.err == nil {
				return nil, fmt.Errorf("wal record: empty entity or source")
			}
			return nil, r.err
		}
		for ci := range schema {
			sc := &rec.cols[ci]
			st := r.byte()
			if st > stagedValue {
				return nil, fmt.Errorf("wal record: bad cell state %d", st)
			}
			sc.state[i] = st
			if st != stagedValue {
				continue
			}
			switch sc.typ {
			case TypeFloat:
				sc.floats[i] = math.Float64frombits(r.u64())
			case TypeString:
				sc.strs[i] = r.str()
			case TypeBool:
				sc.bools[i] = r.byte() != 0
			}
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	if len(r.b) != 0 {
		return nil, fmt.Errorf("wal record: %d trailing bytes", len(r.b))
	}
	return rec, nil
}

// walReader is a tiny error-latching cursor over a record payload.
type walReader struct {
	b   []byte
	err error
}

func (r *walReader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("wal record: truncated payload")
	}
}

func (r *walReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *walReader) byte() byte {
	if len(r.b) < 1 {
		r.fail()
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *walReader) u64() uint64 {
	if len(r.b) < 8 {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

func (r *walReader) str() string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if uint64(len(r.b)) < n {
		r.fail()
		return ""
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

// readWALFile reads the records of one generation file. Frame damage
// (torn tail, bad checksum, undecodable payload) ends the read at the
// last good record — the dropped suffix is reported via torn — while an
// unreadable file or missing magic returns no records with torn=true
// (an empty or just-created file is fine). Only I/O errors on open/read
// are returned as errors.
func readWALFile(path string, schema Schema) (recs []*walRecord, torn bool, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, false, err
	}
	if len(data) < len(walMagic) {
		return nil, len(data) > 0, nil
	}
	if string(data[:len(walMagic)]) != walMagic {
		return nil, true, nil
	}
	b := data[len(walMagic):]
	for len(b) > 0 {
		if len(b) < 8 {
			return recs, true, nil
		}
		n := int(binary.LittleEndian.Uint32(b[0:4]))
		sum := binary.LittleEndian.Uint32(b[4:8])
		if n <= 0 || n > maxWALPayload || len(b) < 8+n {
			return recs, true, nil
		}
		payload := b[8 : 8+n]
		if crc32.ChecksumIEEE(payload) != sum {
			return recs, true, nil
		}
		rec, derr := decodeWALRecord(payload, schema)
		if derr != nil {
			return recs, true, nil
		}
		recs = append(recs, rec)
		b = b[8+n:]
	}
	return recs, false, nil
}

// shardWALState is everything recovery learns from one shard's log
// files: the surviving records (ascending seq) and the generation list
// needed to rebuild an appendable walShard.
type shardWALState struct {
	recs   []*walRecord
	gens   []walGen
	maxGen int
	maxSeq uint64
	torn   bool
}

// loadShardWAL reads every generation file of one shard, in generation
// order, applying the torn-tail policy per file.
func loadShardWAL(dir string, si int, schema Schema) (*shardWALState, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	prefix := fmt.Sprintf("shard%02d-", si)
	var gens []int
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, ".wal") {
			continue
		}
		g, perr := strconv.Atoi(name[len(prefix) : len(name)-len(".wal")])
		if perr != nil {
			continue
		}
		gens = append(gens, g)
	}
	sort.Ints(gens)
	st := &shardWALState{maxGen: -1}
	for _, g := range gens {
		recs, torn, rerr := readWALFile(walGenPath(dir, si, g), schema)
		if rerr != nil {
			return nil, fmt.Errorf("engine: wal shard %d gen %d: %w", si, g, rerr)
		}
		var gmax uint64
		for _, rec := range recs {
			if rec.seq > gmax {
				gmax = rec.seq
			}
			if rec.seq > st.maxSeq {
				st.maxSeq = rec.seq
			}
		}
		st.recs = append(st.recs, recs...)
		st.gens = append(st.gens, walGen{gen: g, maxSeq: gmax})
		if g > st.maxGen {
			st.maxGen = g
		}
		st.torn = st.torn || torn
	}
	sort.SliceStable(st.recs, func(i, j int) bool { return st.recs[i].seq < st.recs[j].seq })
	return st, nil
}

// adoptRecovered initializes the shard's append state after recovery:
// all surviving generations become closed (deletable once applied) and
// appends start a FRESH generation — a recovered file may end torn and
// must never be appended to.
func (w *walShard) adoptRecovered(st *shardWALState, applied uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.gens = st.gens
	w.gen = st.maxGen + 1
	w.seq = st.maxSeq
	if applied > w.seq {
		w.seq = applied
	}
}

// --- shard checkpoint files ---

// segRef names one sealed segment file (basename) and its row count, in
// shard order.
type segRef struct {
	name  string
	nrows int
}

// shardCheckpoint is the durable per-shard metadata written after each
// seal: which segment files hold the sealed rows, the identity and
// lineage columns covering exactly those rows, the source name table
// resolving the lineage IDs, and the WAL safe watermark (records at or
// below walApplied are fully contained in the sealed rows).
type shardCheckpoint struct {
	walApplied uint64
	nextSegID  int
	tableSeq   uint64
	segs       []segRef
	srcNames   []string
	ids        []string
	seqs       []uint64
	lineage    [][]int32
}

func ckptPath(dir string, si int) string {
	return filepath.Join(dir, fmt.Sprintf("shard%02d.ckpt", si))
}

// writeShardCheckpoint persists the checkpoint atomically: body + crc to
// a temp file, fsync, rename, directory fsync.
func writeShardCheckpoint(dir string, si int, ck *shardCheckpoint) error {
	buf := make([]byte, 0, 256+32*len(ck.ids))
	buf = append(buf, ckptMagic...)
	buf = binary.AppendUvarint(buf, ck.walApplied)
	buf = binary.AppendUvarint(buf, uint64(ck.nextSegID))
	buf = binary.AppendUvarint(buf, ck.tableSeq)
	buf = binary.AppendUvarint(buf, uint64(len(ck.segs)))
	for _, s := range ck.segs {
		buf = appendWALString(buf, s.name)
		buf = binary.AppendUvarint(buf, uint64(s.nrows))
	}
	buf = binary.AppendUvarint(buf, uint64(len(ck.srcNames)))
	for _, s := range ck.srcNames {
		buf = appendWALString(buf, s)
	}
	buf = binary.AppendUvarint(buf, uint64(len(ck.ids)))
	for i, id := range ck.ids {
		buf = appendWALString(buf, id)
		buf = binary.AppendUvarint(buf, ck.seqs[i])
		lin := ck.lineage[i]
		buf = binary.AppendUvarint(buf, uint64(len(lin)))
		for _, sid := range lin {
			buf = binary.AppendUvarint(buf, uint64(sid))
		}
	}
	body := buf[len(ckptMagic):]
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(body))

	path := ckptPath(dir, si)
	tmp := path + ".tmp"
	if err := writeFileSync(tmp, buf); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("engine: shard %d checkpoint: %w", si, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("engine: shard %d checkpoint: %w", si, err)
	}
	syncDir(dir)
	return nil
}

// readShardCheckpoint loads a shard checkpoint. A missing file returns
// (nil, nil) — the shard simply has no sealed state; a corrupt file is a
// loud error (segments without their identity columns are unservable).
func readShardCheckpoint(dir string, si int) (*shardCheckpoint, error) {
	data, err := os.ReadFile(ckptPath(dir, si))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	fail := func(what string) (*shardCheckpoint, error) {
		return nil, fmt.Errorf("engine: shard %d checkpoint: %s", si, what)
	}
	if len(data) < len(ckptMagic)+4 || string(data[:len(ckptMagic)]) != ckptMagic {
		return fail("bad header")
	}
	body := data[len(ckptMagic) : len(data)-4]
	sum := binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.ChecksumIEEE(body) != sum {
		return fail("checksum mismatch")
	}
	r := walReader{b: body}
	ck := &shardCheckpoint{
		walApplied: r.uvarint(),
		nextSegID:  int(r.uvarint()),
		tableSeq:   r.uvarint(),
	}
	nsegs := int(r.uvarint())
	if r.err != nil || nsegs < 0 || nsegs > 1<<20 {
		return fail("bad segment list")
	}
	ck.segs = make([]segRef, nsegs)
	for i := range ck.segs {
		ck.segs[i].name = r.str()
		ck.segs[i].nrows = int(r.uvarint())
		if r.err != nil || ck.segs[i].name == "" || ck.segs[i].nrows < 0 {
			return fail("bad segment entry")
		}
	}
	nsrcs := int(r.uvarint())
	if r.err != nil || nsrcs < 0 || nsrcs > 1<<28 {
		return fail("bad source table")
	}
	ck.srcNames = make([]string, nsrcs)
	for i := range ck.srcNames {
		ck.srcNames[i] = r.str()
	}
	nrows := int(r.uvarint())
	if r.err != nil || nrows < 0 || int64(nrows) > 1<<40 {
		return fail("bad row count")
	}
	ck.ids = make([]string, nrows)
	ck.seqs = make([]uint64, nrows)
	ck.lineage = make([][]int32, nrows)
	for i := 0; i < nrows; i++ {
		ck.ids[i] = r.str()
		ck.seqs[i] = r.uvarint()
		nlin := int(r.uvarint())
		if r.err != nil || nlin < 0 || nlin > nsrcs {
			return fail("bad lineage entry")
		}
		lin := make([]int32, nlin)
		for j := range lin {
			sid := r.uvarint()
			if uint64(sid) >= uint64(nsrcs) {
				return fail("lineage source out of range")
			}
			lin[j] = int32(sid)
		}
		ck.lineage[i] = lin
	}
	if r.err != nil {
		return fail("truncated body")
	}
	if len(r.b) != 0 {
		return fail("trailing bytes")
	}
	return ck, nil
}

// --- table manifest ---

// tableManifest is the durable table descriptor (MANIFEST.json): its
// presence marks a directory as a recoverable durable table, and the UID
// ties snapshots to the directory they were taken from so snapshot Load
// adopts segments only when they are the same table instance.
type tableManifest struct {
	Version int              `json:"version"`
	Name    string           `json:"name"`
	UID     string           `json:"uid"`
	Schema  []manifestColumn `json:"schema"`
}

type manifestColumn struct {
	Name string `json:"name"`
	Type string `json:"type"`
}

const manifestVersion = 1

func newTableUID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("uid-%x", b)
	}
	return hex.EncodeToString(b[:])
}

func manifestSchema(schema Schema) []manifestColumn {
	out := make([]manifestColumn, len(schema))
	for i, c := range schema {
		out[i] = manifestColumn{Name: c.Name, Type: c.Type.String()}
	}
	return out
}

// schemaFromManifest converts manifest columns back to a Schema.
func schemaFromManifest(cols []manifestColumn) (Schema, error) {
	schema := make(Schema, len(cols))
	for i, c := range cols {
		var typ ColumnType
		switch c.Type {
		case TypeFloat.String():
			typ = TypeFloat
		case TypeString.String():
			typ = TypeString
		case TypeBool.String():
			typ = TypeBool
		default:
			return nil, fmt.Errorf("engine: manifest column %q has unknown type %q", c.Name, c.Type)
		}
		schema[i] = Column{Name: c.Name, Type: typ}
	}
	return schema, nil
}

func writeTableManifest(dir string, m *tableManifest) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	tmp := filepath.Join(dir, manifestName+".tmp")
	if err := writeFileSync(tmp, data); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, manifestName)); err != nil {
		os.Remove(tmp)
		return err
	}
	syncDir(dir)
	return nil
}

// readTableManifest loads a directory's manifest; a missing file returns
// (nil, nil).
func readTableManifest(dir string) (*tableManifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var m tableManifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("engine: %s: %w", manifestName, err)
	}
	if m.Version != manifestVersion {
		return nil, fmt.Errorf("engine: %s: unsupported version %d", manifestName, m.Version)
	}
	return &m, nil
}

// --- fs helpers ---

// writeFileSync writes data and fsyncs before closing, so a following
// rename publishes fully-durable content.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// syncDir fsyncs a directory so renames/creates within it are durable.
// Best-effort: some platforms/filesystems reject directory fsync.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}
