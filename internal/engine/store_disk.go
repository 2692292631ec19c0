package engine

// Sealed segments: the on-disk half of a shardStore with a directory.
// Once a store's in-memory tail reaches the configured segment size, it
// is sealed into an immutable segment file laid out in a fixed binary
// page format. Sealed segments are served zero-copy through a read-only
// mmap of the whole file — float vectors, string codes and defined/valid
// bitmap words are reinterpreted in place at page-aligned offsets — with
// an aligned-heap ReadAt fallback (DisableMmap, or platforms without
// mmap) that keeps the scan path byte-identical, just not
// page-cache-resident.
//
// What is paged and what is not: the typed column data — the bulk of an
// integrated data set — lives in segments. Identity (entity IDs, the
// entity->row index, sequence numbers) and lineage stay memory-resident
// in storeBase: lineage is mutable for a row's whole lifetime (any later
// source may mention the entity) and both are consulted on every insert
// for entity resolution, so paging them would put a disk read on the
// ingest hot path for a small fraction of the footprint.
//
// Durability: in the default (non-durable) mode segment files are a
// per-process working set — a lost directory just means rebuilding the
// table from its JSON snapshot (persist.go), which stays the portable
// format either way. With StorageConfig.Durable the same files become
// the table's crash-durable home: seals fsync, segment names come from a
// monotonic ID persisted in the shard checkpoint (never reused, so a
// crashed seal can't truncate-rewrite a file a checkpoint references),
// a staged-chunk WAL covers rows not yet sealed (wal.go), and recovery
// re-adopts the sealed files in place (recover.go). Files stay in the
// host's native byte order in both modes (an endianness tag guards
// against reusing a directory across architectures).
//
// Segment file layout (all offsets page-aligned, pageSize = 4096):
//
//	header page:
//	  magic "UUSEGv2\x00"        [8]byte (v1 files are still readable)
//	  endian tag                  uint64 (native order; must read back as
//	                              segEndianTag on the serving host)
//	  nrows, ncols                uint64, uint64
//	  per column (ncols entries):
//	    kind                      uint64 (ColumnType)
//	    dataOff, dataLen          uint64 x2
//	    auxOff, auxLen            uint64 x2 (string dictionary; zero otherwise)
//	    defOff, valOff            uint64 x2 (packed bitmap words)
//	sections, in TOC order, each starting on a page boundary:
//	  FLOAT data:  nrows x float64   STRING data: nrows x uint32 codes
//	  BOOL data:   nrows x byte      STRING aux:  dictionary (below)
//	  defined/valid: ceil(nrows/64) x uint64
//
// v2 string columns are dictionary-encoded: the data section holds one
// uint32 code per row and the aux section holds the segment-local
// dictionary — cardinality (uint64, native order), then (card+1) uint32
// offsets, then the concatenated unique strings in ASCENDING order. The
// sort is load-bearing: segment code order IS string order, so the
// word-at-a-time predicate kernels run on segment extents with the
// identity rank (no lookaside). v1 files (per-row offset+blob layout,
// magic "UUSEGv1\x00") are still read: each string column is transcoded
// at open into heap codes plus a sorted dictionary, so they scan through
// the same kernels, and the next compaction rewrites them as v2.

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"unsafe"
)

const (
	segMagicV1   = "UUSEGv1\x00"
	segMagic     = "UUSEGv2\x00"
	segPageSize  = 4096
	segEndianTag = 0x0102030405060708
	// maxSegStringBlob bounds one segment's string dictionary blob so
	// uint32 offsets cannot wrap.
	maxSegStringBlob = 1<<32 - 1
	// defaultSegmentRows is the seal threshold when StorageConfig leaves
	// SegmentRows zero.
	defaultSegmentRows = 4096
)

// segment is one sealed, immutable on-disk run of rows: the raw file
// bytes (mmap'd or heap-loaded) plus per-column extents pointing into
// them. Extents carry the segment's global base row, so they drop
// directly into a storeView.
type segment struct {
	path   string
	nrows  int
	base   int
	data   []byte
	mapped bool
	cols   []colExtent
}

// Maintain runs post-apply housekeeping: it seals the tail into a segment
// once it reaches the configured segment size. Sealing never changes
// logical content: the same rows are simply served from the segment
// instead of the tail, so no epoch movement is involved. On error the
// tail stays in memory and the store remains fully usable.
func (s *shardStore) Maintain() error {
	if s.tailRows() < s.segRows {
		return nil
	}
	return s.seal()
}

// seal writes the whole current tail as one segment (segments may hold
// more than segRows rows when a large batch landed between Maintain
// calls; the format records nrows per segment). A store without a
// directory never seals: for it, seal and Maintain do nothing.
func (s *shardStore) seal() error {
	n := s.tailRows()
	if n == 0 || s.dir == "" {
		return nil
	}
	dicts, err := planSegDicts(s.schema, s.tail, n)
	if err != nil {
		return err
	}
	path := filepath.Join(s.dir, segFileName(s.shardIdx, s.nextSegID))
	raw := buildSegmentBytes(s.schema, s.tail, n, dicts)
	if err := s.writeSegmentFile(path, raw); err != nil {
		return fmt.Errorf("engine: sealing shard segment: %w", err)
	}
	seg, err := openSegment(path, s.schema, s.sealed, s.useMmap)
	if err != nil {
		os.Remove(path) // best-effort: the tail still holds the rows
		return fmt.Errorf("engine: reopening sealed segment: %w", err)
	}
	s.nextSegID++
	s.segs = append(s.segs, seg)
	s.sealed += n
	s.tail = newTailCols(s.schema, s.dict)
	s.view.Store(nil)
	return nil
}

// planSegDicts plans the segment-local dictionary of every string column
// (nil entries otherwise). The format stores dictionary offsets as
// uint32: a column whose unique strings exceed the blob bound must stay
// in memory (fail safe) rather than seal a segment with wrapped offsets.
// Unreachable at sane SegmentRows, but seal() writes whole tails, and a
// huge batch makes tails unbounded.
func planSegDicts(schema Schema, cols []colVector, n int) ([]*segDict, error) {
	dicts := make([]*segDict, len(schema))
	for ci, c := range schema {
		if c.Type != TypeString {
			continue
		}
		sd := planSegDict(cols[ci].codes[:n], cols[ci].dict.valsView())
		if int64(sd.blob) > maxSegStringBlob {
			return nil, fmt.Errorf("engine: %w: string column %q too large to seal (%d dictionary bytes)",
				ErrSegmentLimit, c.Name, sd.blob)
		}
		dicts[ci] = sd
	}
	return dicts, nil
}

func segFileName(shardIdx, segID int) string {
	return fmt.Sprintf("shard%02d-seg%05d.seg", shardIdx, segID)
}

// writeSegmentFile writes segment bytes; in durable mode the file (and
// its directory entry) are fsynced before the segment becomes part of
// any checkpointable state.
func (s *shardStore) writeSegmentFile(path string, raw []byte) error {
	if !s.durable {
		return os.WriteFile(path, raw, 0o644)
	}
	if err := writeFileSync(path, raw); err != nil {
		return err
	}
	syncDir(s.dir)
	return nil
}

// shouldCompact reports whether the shard accumulated enough sealed
// segment files to trigger a compaction rewrite.
func (s *shardStore) shouldCompact() bool {
	return s.compactEvery > 0 && len(s.segs) >= s.compactEvery
}

// openStoreFromCheckpoint rebuilds a shard store from its durable
// checkpoint: the referenced segment files are re-opened (adopted) in
// place — no row is re-inserted — and the identity/lineage columns come
// straight from the checkpoint. The checkpoint covers exactly the sealed
// rows (checkpoints are never written with a nonzero tail), so adopted
// stores start with an empty tail; WAL replay then re-stages anything
// newer.
func openStoreFromCheckpoint(cfg StorageConfig, schema Schema, dir string, shardIdx int, ck *shardCheckpoint) (*shardStore, error) {
	s, err := newShardStore(cfg, schema, dir, shardIdx)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*shardStore, error) {
		s.Close()
		return nil, err
	}
	base := 0
	for _, ref := range ck.segs {
		seg, err := openSegment(filepath.Join(dir, ref.name), schema, base, s.useMmap)
		if err != nil {
			return fail(fmt.Errorf("engine: shard %d: adopting segment %s: %w", shardIdx, ref.name, err))
		}
		if seg.nrows != ref.nrows {
			s.segs = append(s.segs, seg) // let Close unmap it
			return fail(fmt.Errorf("engine: shard %d: segment %s holds %d rows, checkpoint says %d",
				shardIdx, ref.name, seg.nrows, ref.nrows))
		}
		s.segs = append(s.segs, seg)
		base += seg.nrows
	}
	if len(ck.ids) != base {
		return fail(fmt.Errorf("engine: shard %d: checkpoint has %d identities for %d sealed rows",
			shardIdx, len(ck.ids), base))
	}
	s.sealed = base
	s.nextSegID = ck.nextSegID
	s.ids = ck.ids
	s.seqs = ck.seqs
	s.lineage = ck.lineage
	nObs := 0
	for i, id := range ck.ids {
		h := hashEntity(id)
		if _, dup := s.lookup(id, h); dup {
			return fail(fmt.Errorf("engine: shard %d: checkpoint repeats entity %q", shardIdx, id))
		}
		s.index.add(ck.ids, h, i)
		nObs += len(ck.lineage[i])
	}
	s.nObs = nObs
	return s, nil
}

// --- segment encoding ---

// segDict is the plan for one string column's segment-local dictionary:
// the distinct strings the rows actually reference, sorted ascending, and
// the remap from shard-dictionary codes to segment codes. remap is only
// meaningful at codes present in the planned rows.
type segDict struct {
	remap      []uint32 // shard (or source-local) code -> segment code
	sortedVals []string // referenced strings, ascending
	blob       int      // total bytes of sortedVals
}

// planSegDict collects the codes of ALL n rows — including the
// dictEmptyCode placeholders of rows the bitmaps exclude — so every cell
// of the written code vector remaps to a valid segment code (the kernels
// translate whole words before masking, exactly like the live path).
func planSegDict(codes []uint32, vals []string) *segDict {
	used := make([]bool, len(vals))
	for _, c := range codes {
		used[c] = true
	}
	order := make([]uint32, 0, 64)
	for c, u := range used {
		if u {
			order = append(order, uint32(c))
		}
	}
	sort.Slice(order, func(i, j int) bool { return vals[order[i]] < vals[order[j]] })
	sd := &segDict{
		remap:      make([]uint32, len(vals)),
		sortedVals: make([]string, len(order)),
	}
	for sc, c := range order {
		sd.remap[c] = uint32(sc)
		sd.sortedVals[sc] = vals[c]
		sd.blob += len(vals[c])
	}
	return sd
}

// transcodeV1Strings converts a v1 string column — n+1 per-row offsets
// into a concatenated blob — into the v2 form: per-row codes into a
// strictly sorted dictionary, planned exactly as a seal plans one. Offsets
// that decrease or run past the blob are rejected, so a corrupt file fails
// at open rather than on the first cell read.
func transcodeV1Strings(offs []uint32, blob []byte) ([]uint32, []string, error) {
	local := newStringDict()
	codes := make([]uint32, len(offs)-1)
	for i := range codes {
		lo, hi := offs[i], offs[i+1]
		if lo > hi || uint64(hi) > uint64(len(blob)) {
			return nil, nil, fmt.Errorf("string offsets [%d, %d) of row %d out of order or past the %d-byte blob", lo, hi, i, len(blob))
		}
		codes[i] = local.intern(string(blob[lo:hi]))
	}
	sd := planSegDict(codes, local.valsView())
	for i, c := range codes {
		codes[i] = sd.remap[c]
	}
	return codes, sd.sortedVals, nil
}

// segHeaderSize returns the byte size of the header block before padding.
func segHeaderSize(ncols int) int {
	return 8 + 8 + 8 + 8 + ncols*(8+6*8)
}

func pageAlign(off int) int {
	return (off + segPageSize - 1) &^ (segPageSize - 1)
}

func segWords(nrows int) int { return (nrows + 63) / 64 }

// segTOC is one column's section table.
type segTOC struct {
	kind             ColumnType
	dataOff, dataLen int
	auxOff, auxLen   int
	defOff, valOff   int
}

// segLayout computes the TOC and total file size for a tail of n rows.
func segLayout(schema Schema, n int, dicts []*segDict) ([]segTOC, int) {
	toc := make([]segTOC, len(schema))
	off := pageAlign(segHeaderSize(len(schema)))
	bmLen := segWords(n) * 8
	for ci, c := range schema {
		t := &toc[ci]
		t.kind = c.Type
		t.dataOff = off
		switch c.Type {
		case TypeFloat:
			t.dataLen = n * 8
		case TypeString:
			t.dataLen = n * 4
			sd := dicts[ci]
			t.auxLen = 8 + (len(sd.sortedVals)+1)*4 + sd.blob
		case TypeBool:
			t.dataLen = n
		}
		off = pageAlign(t.dataOff + t.dataLen)
		if c.Type == TypeString {
			t.auxOff = off
			off = pageAlign(t.auxOff + t.auxLen)
		}
		t.defOff = off
		off = pageAlign(t.defOff + bmLen)
		t.valOff = off
		off = pageAlign(t.valOff + bmLen)
	}
	return toc, off
}

// buildSegmentBytes serializes the first n tail rows into the segment
// format. The header is little-endian; data sections are native-order
// (guarded by the endian tag) so they can be reinterpreted in place.
// dicts holds the planned segment dictionaries (planSegDicts).
func buildSegmentBytes(schema Schema, tail []colVector, n int, dicts []*segDict) []byte {
	toc, size := segLayout(schema, n, dicts)
	raw := make([]byte, size)

	// Header.
	copy(raw[0:8], segMagic)
	hostOrder.PutUint64(raw[8:16], segEndianTag)
	binary.LittleEndian.PutUint64(raw[16:24], uint64(n))
	binary.LittleEndian.PutUint64(raw[24:32], uint64(len(schema)))
	h := 32
	putU64 := func(v int) {
		binary.LittleEndian.PutUint64(raw[h:h+8], uint64(v))
		h += 8
	}
	for ci := range toc {
		t := &toc[ci]
		putU64(int(t.kind))
		putU64(t.dataOff)
		putU64(t.dataLen)
		putU64(t.auxOff)
		putU64(t.auxLen)
		putU64(t.defOff)
		putU64(t.valOff)
	}

	// Sections.
	bmLen := segWords(n) * 8
	for ci := range toc {
		t := &toc[ci]
		col := &tail[ci]
		switch t.kind {
		case TypeFloat:
			copy(raw[t.dataOff:t.dataOff+t.dataLen], floatBytes(col.floats[:n]))
		case TypeString:
			sd := dicts[ci]
			if n > 0 {
				codes := unsafe.Slice((*uint32)(unsafe.Pointer(&raw[t.dataOff])), n)
				for i, c := range col.codes[:n] {
					codes[i] = sd.remap[c]
				}
			}
			card := len(sd.sortedVals)
			hostOrder.PutUint64(raw[t.auxOff:t.auxOff+8], uint64(card))
			offs := unsafe.Slice((*uint32)(unsafe.Pointer(&raw[t.auxOff+8])), card+1)
			bp := t.auxOff + 8 + (card+1)*4
			pos := uint32(0)
			for i, s := range sd.sortedVals {
				offs[i] = pos
				copy(raw[bp+int(pos):], s)
				pos += uint32(len(s))
			}
			offs[card] = pos
		case TypeBool:
			dst := raw[t.dataOff : t.dataOff+n]
			for i, b := range col.bools[:n] {
				if b {
					dst[i] = 1
				}
			}
		}
		copy(raw[t.defOff:t.defOff+bmLen], wordBytes(col.defined.words[:segWords(n)]))
		copy(raw[t.valOff:t.valOff+bmLen], wordBytes(col.valid.words[:segWords(n)]))
	}
	return raw
}

// hostOrder writes/reads in native byte order via the same reinterpret
// path the data sections use, so the endian tag is a faithful probe.
var hostOrder = func() binary.ByteOrder {
	probe := uint64(segEndianTag)
	b := wordBytes([]uint64{probe})
	if binary.LittleEndian.Uint64(b) == probe {
		return binary.ByteOrder(binary.LittleEndian)
	}
	return binary.ByteOrder(binary.BigEndian)
}()

func floatBytes(f []float64) []byte {
	if len(f) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&f[0])), len(f)*8)
}

func wordBytes(w []uint64) []byte {
	if len(w) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&w[0])), len(w)*8)
}

// openSegment loads a sealed segment file for serving: the header is
// parsed, the whole file is mmap'd (or read into an 8-aligned heap
// buffer when mmap is off) and per-column extents are built pointing
// into the raw bytes in place.
func openSegment(path string, schema Schema, base int, useMmap bool) (*segment, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := int(fi.Size())
	if size < segHeaderSize(len(schema)) {
		return nil, fmt.Errorf("segment %s: truncated header (%d bytes)", path, size)
	}

	var data []byte
	mapped := false
	if useMmap {
		data, err = mmapFile(f, size)
		if err != nil {
			return nil, fmt.Errorf("segment %s: mmap: %w", path, err)
		}
		mapped = true
	} else {
		// Aligned-heap fallback: back the buffer with []uint64 so the
		// in-place reinterpretation below sees 8-aligned sections exactly
		// like a page-aligned mapping would.
		words := make([]uint64, (size+7)/8)
		data = wordBytes(words)[:size]
		if _, err := io.ReadFull(io.NewSectionReader(f, 0, int64(size)), data); err != nil {
			return nil, fmt.Errorf("segment %s: read: %w", path, err)
		}
	}
	seg, err := parseSegment(path, schema, base, data, size)
	if err != nil {
		if mapped {
			munmapFile(data)
		}
		return nil, err
	}
	seg.mapped = mapped
	return seg, nil
}

func parseSegment(path string, schema Schema, base int, data []byte, size int) (*segment, error) {
	var v1 bool
	switch string(data[0:8]) {
	case segMagic:
	case segMagicV1:
		v1 = true
	default:
		return nil, fmt.Errorf("segment %s: bad magic", path)
	}
	if hostOrder.Uint64(data[8:16]) != segEndianTag {
		return nil, fmt.Errorf("segment %s: byte order does not match this host", path)
	}
	nrows := int(binary.LittleEndian.Uint64(data[16:24]))
	ncols := int(binary.LittleEndian.Uint64(data[24:32]))
	if ncols != len(schema) {
		return nil, fmt.Errorf("segment %s: %d columns, schema has %d", path, ncols, len(schema))
	}
	seg := &segment{path: path, nrows: nrows, base: base, data: data, cols: make([]colExtent, ncols)}
	h := 32
	getU64 := func() int {
		v := int(binary.LittleEndian.Uint64(data[h : h+8]))
		h += 8
		return v
	}
	bmLen := segWords(nrows) * 8
	for ci := range seg.cols {
		kind := ColumnType(getU64())
		dataOff, dataLen := getU64(), getU64()
		auxOff, auxLen := getU64(), getU64()
		defOff, valOff := getU64(), getU64()
		if kind != schema[ci].Type {
			return nil, fmt.Errorf("segment %s: column %d is %v, schema wants %v", path, ci, kind, schema[ci].Type)
		}
		for _, sec := range [][2]int{{dataOff, dataLen}, {auxOff, auxLen}, {defOff, bmLen}, {valOff, bmLen}} {
			if sec[0] < 0 || sec[1] < 0 || sec[0]+sec[1] > size {
				return nil, fmt.Errorf("segment %s: column %d section out of bounds", path, ci)
			}
		}
		if dataOff%8 != 0 || defOff%8 != 0 || valOff%8 != 0 {
			return nil, fmt.Errorf("segment %s: column %d sections misaligned", path, ci)
		}
		e := &seg.cols[ci]
		e.base = base
		e.n = nrows
		switch kind {
		case TypeFloat:
			if dataLen < nrows*8 {
				return nil, fmt.Errorf("segment %s: column %d float section too short", path, ci)
			}
			if nrows > 0 {
				e.floats = unsafe.Slice((*float64)(unsafe.Pointer(&data[dataOff])), nrows)
			}
		case TypeString:
			if v1 {
				// v1: per-row offsets into a raw concatenated blob, transcoded
				// here into heap codes plus a sorted dictionary — the v2 form
				// every string kernel reads.
				if dataLen < (nrows+1)*4 {
					return nil, fmt.Errorf("segment %s: column %d offset section too short", path, ci)
				}
				offs := unsafe.Slice((*uint32)(unsafe.Pointer(&data[dataOff])), nrows+1)
				codes, dict, err := transcodeV1Strings(offs, data[auxOff:auxOff+auxLen])
				if err != nil {
					return nil, fmt.Errorf("segment %s: column %d %w", path, ci, err)
				}
				e.codes, e.dict = codes, dict
				break
			}
			// v2: per-row codes plus a sorted segment dictionary. Codes are
			// reinterpreted in place (the row-proportional bulk); the
			// dictionary — small by construction — is materialized eagerly so
			// extent strings never alias the mapping.
			if dataLen < nrows*4 {
				return nil, fmt.Errorf("segment %s: column %d code section too short", path, ci)
			}
			if nrows > 0 {
				e.codes = unsafe.Slice((*uint32)(unsafe.Pointer(&data[dataOff])), nrows)
			}
			if auxLen < 8 {
				return nil, fmt.Errorf("segment %s: column %d dictionary section too short", path, ci)
			}
			card := int(hostOrder.Uint64(data[auxOff : auxOff+8]))
			if card < 0 || auxLen < 8+(card+1)*4 {
				return nil, fmt.Errorf("segment %s: column %d dictionary cardinality %d out of bounds", path, ci, card)
			}
			offs := unsafe.Slice((*uint32)(unsafe.Pointer(&data[auxOff+8])), card+1)
			blob := data[auxOff+8+(card+1)*4 : auxOff+auxLen]
			if uint64(offs[card]) > uint64(len(blob)) {
				return nil, fmt.Errorf("segment %s: column %d dictionary blob overrun", path, ci)
			}
			dict := make([]string, card)
			for i := range dict {
				if offs[i] > offs[i+1] {
					return nil, fmt.Errorf("segment %s: column %d dictionary offsets not monotonic", path, ci)
				}
				dict[i] = string(blob[offs[i]:offs[i+1]])
				if i > 0 && dict[i] <= dict[i-1] {
					// The identity-rank contract: segment code order IS
					// string order, which the kernels rely on.
					return nil, fmt.Errorf("segment %s: column %d dictionary not strictly sorted", path, ci)
				}
			}
			for _, c := range e.codes {
				if int(c) >= card {
					return nil, fmt.Errorf("segment %s: column %d code %d out of dictionary range %d", path, ci, c, card)
				}
			}
			e.dict = dict
		case TypeBool:
			if dataLen < nrows {
				return nil, fmt.Errorf("segment %s: column %d bool section too short", path, ci)
			}
			e.boolBytes = data[dataOff : dataOff+nrows]
		default:
			return nil, fmt.Errorf("segment %s: column %d unknown kind %d", path, ci, int(kind))
		}
		if segWords(nrows) > 0 {
			e.defined = bitsView{words: unsafe.Slice((*uint64)(unsafe.Pointer(&data[defOff])), segWords(nrows))}
			e.valid = bitsView{words: unsafe.Slice((*uint64)(unsafe.Pointer(&data[valOff])), segWords(nrows))}
		}
	}
	return seg, nil
}
