package engine

import "repro/internal/freqstats"

// Delta partials. A query whose cached partial for a shard is stale does
// not have to rescan the shard: it can catch the cached partial up to the
// shard's current epoch. That is exact because of how rows change. A
// shard holds one row per entity, ApplyBatch fixes a row's values at its
// first insertion and a later observation only extends its lineage, and
// the epoch moves only in applyChunks. So a predicate's outcome on a
// stored row never changes, and the partial at epoch e′ is the partial at
// an earlier epoch e with the lineage of the kept rows that batches
// extended refreshed, plus the matching rows appended since, in row (=
// seq) order. Only those new rows meet the compiled predicate.
//
// What a catch-up needs to know — the row count at e and which stored
// rows' lineage grew since — is the shard's delta log, written by
// applyChunks under the shard write lock. The log is bounded: a gap it
// does not cover (an overflow, a base older than the log, a freshly
// opened or recovered table, whose cache holds no base anyway) falls back
// to the full scan.

const (
	// deltaLogBatches bounds the batches a shard's delta log remembers. A
	// live subscription re-queries after every batch, so its base is
	// rarely more than a few batches old.
	deltaLogBatches = 64
	// deltaLogRows bounds the touched rows the log holds. Before each
	// batch the oldest batches are forgotten until at most half of it is
	// used, so one batch can always log deltaLogRows/2 rows; a batch that
	// touches more empties the log.
	deltaLogRows = 8192
)

// deltaLog records, for one shard, what each recently applied batch did
// to the rows already stored. Batch k of the log moved the shard's epoch
// from from+k to from+k+1. Its buffers grow on demand, to at most
// deltaLogBatches batches and deltaLogRows touched rows, and are reused
// once grown, so a steady drain adds no allocation; a shard whose batches
// only add rows never allocates touched.
type deltaLog struct {
	from    uint64       // epoch before the oldest logged batch
	batches []deltaBatch // oldest first
	touched []int32      // stored rows whose lineage grew, batch after batch
	rows    int          // store rows before the batch being applied
	full    bool         // the batch being applied overflowed touched
}

// deltaBatch is one logged batch.
type deltaBatch struct {
	rows int // store rows before the batch
	end  int // end of the batch's rows in touched
}

// begin opens the log for a batch about to apply at the store's current
// row count. The epoch moves only when a batch commits, so the log always
// ends at the current epoch (since checks it all the same).
func (l *deltaLog) begin(rows int) {
	drop := 0
	if len(l.batches) == deltaLogBatches {
		drop = deltaLogBatches / 2
	}
	for drop < len(l.batches) {
		off := 0
		if drop > 0 {
			off = l.batches[drop-1].end
		}
		if len(l.touched)-off <= deltaLogRows/2 {
			break
		}
		drop++
	}
	if drop > 0 {
		l.forget(drop)
	}
	l.rows, l.full = rows, false
}

// forget drops the k oldest batches, sliding the rest down in place.
func (l *deltaLog) forget(k int) {
	if k >= len(l.batches) {
		l.from += uint64(len(l.batches))
		l.batches, l.touched = l.batches[:0], l.touched[:0]
		return
	}
	off := l.batches[k-1].end
	n := copy(l.touched, l.touched[off:])
	l.touched = l.touched[:n]
	n = copy(l.batches, l.batches[k:])
	l.batches = l.batches[:n]
	for i := range l.batches {
		l.batches[i].end -= off
	}
	l.from += uint64(k)
}

// touch records that the batch being applied extended a stored row's
// lineage. Rows the batch itself created are skipped: a catch-up scans
// them as new rows.
func (l *deltaLog) touch(row int) {
	if row >= l.rows {
		return
	}
	if len(l.touched) == deltaLogRows {
		l.full = true
		return
	}
	l.touched = append(l.touched, int32(row))
}

// commit closes the batch opened by begin; the caller has just bumped the
// epoch.
func (l *deltaLog) commit() {
	if l.full {
		l.forget(len(l.batches))
		l.from++ // the overflowing batch is not covered
		return
	}
	l.batches = append(l.batches, deltaBatch{rows: l.rows, end: len(l.touched)})
}

// since returns the store's row count at epoch base and the rows touched
// by every batch from base up to epoch, the shard's current epoch (rows at
// or past the count included, and a row may repeat). ok is false when the
// log does not cover those batches. The result aliases the log: read it
// under the shard lock, outside which touched holds logged batches only.
func (l *deltaLog) since(base, epoch uint64) (rows int, touched []int32, ok bool) {
	n := uint64(len(l.batches))
	if base < l.from || base >= epoch || epoch != l.from+n {
		return 0, nil, false
	}
	k := int(base - l.from)
	start := 0
	if k > 0 {
		start = l.batches[k-1].end
	}
	return l.batches[k].rows, l.touched[start:], true
}

// catchUp builds shard sh's partial at its current epoch from base, the
// stale cached partial of the same key built at epoch baseEpoch. base is
// frozen and may be shared, so the result is a new partial: base's rows
// in order, each kept with the lineage it has now, then the matching rows
// stored since. Without a base, or when the shard's delta log does not
// reach back to baseEpoch, it scans the shard in full. The shard must be
// read-locked by the caller.
func (t *Table) catchUp(sh *shard, base *freqstats.Partial, baseEpoch uint64, attrCol int, prog *filterProgram) (*freqstats.Partial, error) {
	rows, touched, ok := sh.delta.since(baseEpoch, sh.store.Epoch())
	if base == nil || !ok {
		return t.scanShard(sh, attrCol, prog)
	}
	v := sh.store.View()
	// Base holds only rows below the old row count; mark those whose
	// lineage grew (a bitmap both dedupes and orders them).
	grown := borrowBitmap(rows)
	defer releaseBitmap(grown)
	for _, r := range touched {
		if int(r) < rows {
			grown.set(int(r))
		}
	}
	part := borrowSamplePart()
	part.Grow(base.Rows(), base.Obs()+len(touched))
	// Merge by seq: rows ascend by seq within a shard, and so do base's.
	nb, i := base.Rows(), 0
	grown.forEachSet(func(row int) {
		seq := v.seqs[row]
		j := i
		for j < nb && base.Seq(j) < seq {
			j++
		}
		part.CopyRows(base, i, j)
		i = j
		if i < nb && base.Seq(i) == seq {
			part.CopyRow(base, i, v.lineage[row])
			i++
		}
	})
	part.CopyRows(base, i, nb)
	if err := t.scanRows(part, sh, attrCol, prog, rows); err != nil {
		releaseSamplePart(part)
		return nil, err
	}
	t.cache.pDeltas.Add(1)
	return part, nil
}
