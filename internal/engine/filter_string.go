package engine

// Word-at-a-time string predicate kernels. Dictionary-encoded string
// columns (dict.go, store.go) let string predicates ride the same 64-row
// word machinery as the float kernels in filter.go: instead of comparing
// strings per row, a predicate is translated ONCE per extent into rank
// space — the extent's dictionary sorted ascending — where every
// comparison against a literal becomes an integer test on the row's code.
//
//	<, <=, >, >=, BETWEEN, =, !=, LIKE 'p%'  ->  rank in [lo, hi)
//	IN (...)                                 ->  rank-bitset membership
//
// Live extents carry a rank lookaside built from the shard dictionary
// (stringDict.sortedView); sealed segments carry a sorted dictionary (v2
// files write it so, v1 files are transcoded into it at open), so their
// code order IS string order and rank is the identity (nil). Every
// extent, at any base, takes the word kernels; the per-row string walk
// survives only as the oracle of the parity tests.
//
// NULL semantics split in two families, matching the generic paths and
// sqlparse.Evaluate exactly:
//   - compare and LIKE: a NULL (or missing-before-negate) operand fails
//     both polarities — evalCodeCmpWords masks NULL rows out of the
//     candidate word and negation complements within it.
//   - BETWEEN and IN: negation is applied OUTSIDE the three-valued-false
//     membership, so NOT BETWEEN / NOT IN keep NULL rows —
//     evalCodeMembershipWords re-adds the selected invalid rows under
//     negate, mirroring evalFloatMembershipWords.

import (
	"fmt"
	"strings"

	"repro/internal/sqlparse"
)

// evalStrCmp runs <col> <op> <lit> (or flipped) over a string column, one
// extent at a time, with the rank-interval word kernel.
func evalStrCmp(v *storeView, sel, out *bitmap, colOp *operand, op sqlparse.CompareOp, c string, flipped bool) error {
	if flipped {
		op = flipCmp(op)
	}
	switch op {
	case sqlparse.OpEq, sqlparse.OpNe, sqlparse.OpLt, sqlparse.OpLe, sqlparse.OpGt, sqlparse.OpGe:
	default:
		return fmt.Errorf("sql: unknown operator %q", op)
	}
	cv := &v.cols[colOp.col]
	for ei := range cv.exts {
		ext := &cv.exts[ei]
		rank, sortedVals := ext.dictOrder()
		lo, hi, negate := cmpRankBounds(op, sortedVals, c)
		if err := evalCodeCmpWords(ext, sel, out, colOp.name, rank, lo, hi, negate); err != nil {
			return err
		}
	}
	return nil
}

// cmpRankBounds translates a comparison against a literal into a rank
// interval over the extent's sorted dictionary. Equality and inequality
// share the literal's own interval (empty when the literal is not in the
// dictionary), with inequality expressed as negation.
func cmpRankBounds(op sqlparse.CompareOp, sortedVals []string, c string) (lo, hi uint32, negate bool) {
	lb := dictLowerBound(sortedVals, c)
	ub := dictUpperBound(sortedVals, c)
	d := uint32(len(sortedVals))
	switch op {
	case sqlparse.OpEq:
		return lb, ub, false
	case sqlparse.OpNe:
		return lb, ub, true
	case sqlparse.OpLt:
		return 0, lb, false
	case sqlparse.OpLe:
		return 0, ub, false
	case sqlparse.OpGt:
		return ub, d, false
	default: // OpGe; evalStrCmp already validated the operator
		return lb, d, false
	}
}

// evalCodeCmpWords is the word-at-a-time rank-interval kernel for the
// compare/LIKE family over one dictionary extent at any base. Per 64-row
// word: mask the selection to the extent, reject selected-but-undefined
// rows (word test), drop NULLs via the valid word, build the interval
// word for the whole code slab branch-free, and resolve negation within
// the candidate word (NULL rows fail both polarities in this family).
func evalCodeCmpWords(ext *colExtent, sel, out *bitmap, colName string, rank []uint32, lo, hi uint32, negate bool) error {
	nw := (ext.n + 63) >> 6
	codes := ext.codes
	defWords := ext.defined.words
	validWords := ext.valid.words
	for w := 0; w < nw; w++ {
		selw := ext.loadWord(sel, w)
		wlo := w << 6
		whi := wlo + 64
		if whi > ext.n {
			whi = ext.n
			selw &= ext.tailMask()
		}
		if selw == 0 {
			continue
		}
		if selw&^defWords[w] != 0 {
			return fmt.Errorf("sql: %w %q", ErrUnknownColumn, colName)
		}
		cand := selw & validWords[w]
		if cand == 0 {
			continue
		}
		rw := codeRangeWord(codes[wlo:whi], rank, lo, hi)
		if negate {
			rw = ^rw
		}
		ext.orWord(out, w, cand&rw)
	}
	return nil
}

// evalCodeMembershipWords is the word-at-a-time membership kernel —
// BETWEEN and IN over string literals — for one dictionary extent at any
// base. member builds the membership word for up to 64 contiguous
// codes; negation is applied outside it and keeps selected NULL rows,
// exactly like evalFloatMembershipWords.
func evalCodeMembershipWords(ext *colExtent, sel, out *bitmap, colName string, negate bool, member func(codes []uint32) uint64) error {
	nw := (ext.n + 63) >> 6
	codes := ext.codes
	defWords := ext.defined.words
	validWords := ext.valid.words
	for w := 0; w < nw; w++ {
		selw := ext.loadWord(sel, w)
		lo := w << 6
		hi := lo + 64
		if hi > ext.n {
			hi = ext.n
			selw &= ext.tailMask()
		}
		if selw == 0 {
			continue
		}
		if selw&^defWords[w] != 0 {
			return fmt.Errorf("sql: %w %q", ErrUnknownColumn, colName)
		}
		cand := selw & validWords[w]
		var res uint64
		if cand != 0 {
			inw := member(codes[lo:hi])
			if negate {
				res = cand &^ inw
			} else {
				res = cand & inw
			}
		}
		if negate {
			// Selected NULL rows survive NOT: the inner membership is false
			// for NULL and the generic path negates after it.
			res |= selw &^ validWords[w]
		}
		ext.orWord(out, w, res)
	}
	return nil
}

// codeRangeWord packs rank(code) in [lo, hi) for up to 64 contiguous
// codes into the low bits of one word, branch-free. A nil rank is the
// identity (sealed segments: code order is string order). Every cell
// is translated — including placeholder codes of rows the caller's masks
// exclude — which is why placeholders must be valid dictionary indexes
// (dictEmptyCode).
func codeRangeWord(codes []uint32, rank []uint32, lo, hi uint32) uint64 {
	var w uint64
	if rank == nil {
		for i, c := range codes {
			w |= (b2u(c >= lo) & b2u(c < hi)) << uint(i)
		}
		return w
	}
	for i, c := range codes {
		r := rank[c]
		w |= (b2u(r >= lo) & b2u(r < hi)) << uint(i)
	}
	return w
}

// codeSetWord packs rank-bitset membership for up to 64 contiguous codes
// into the low bits of one word. set is a bitset over ranks (IN lists
// resolve each literal to its exact rank at extent-translation time).
func codeSetWord(codes []uint32, rank []uint32, set []uint64) uint64 {
	var w uint64
	if rank == nil {
		for i, c := range codes {
			w |= ((set[c>>6] >> (c & 63)) & 1) << uint(i)
		}
		return w
	}
	for i, c := range codes {
		r := rank[c]
		w |= ((set[r>>6] >> (r & 63)) & 1) << uint(i)
	}
	return w
}

// evalStrMembership runs a membership predicate — BETWEEN or IN over
// string literals — on a string column, one extent at a time. mk
// translates the predicate into a membership-word builder for one
// extent's (rank, sorted dictionary) pair.
func evalStrMembership(v *storeView, sel, out *bitmap, colOp *operand, negate bool,
	mk func(rank []uint32, sortedVals []string) func(codes []uint32) uint64) error {
	cv := &v.cols[colOp.col]
	for ei := range cv.exts {
		ext := &cv.exts[ei]
		rank, sortedVals := ext.dictOrder()
		if err := evalCodeMembershipWords(ext, sel, out, colOp.name, negate, mk(rank, sortedVals)); err != nil {
			return err
		}
	}
	return nil
}

// isStrCol reports whether the operand is a STRING column reference.
func (o *operand) isStrCol() bool { return o.isCol && o.typ == TypeString }

// likePlan is the compile-time classification of a LIKE pattern for the
// dictionary fast path: exact patterns (no wildcards) become the
// literal's own rank interval, pure-prefix patterns (p% with no other
// wildcard) become the prefix's rank interval. Anything else keeps the
// generic per-row LikeMatch.
type likePlan struct {
	fast   bool
	prefix bool   // true: prefix interval; false: exact interval
	lit    string // the exact literal or the prefix
}

func planLike(pattern string) likePlan {
	if !strings.ContainsAny(pattern, "%_") {
		return likePlan{fast: true, lit: pattern}
	}
	if strings.HasSuffix(pattern, "%") && !strings.ContainsAny(pattern[:len(pattern)-1], "%_") {
		return likePlan{fast: true, prefix: true, lit: pattern[:len(pattern)-1]}
	}
	return likePlan{}
}

// evalStrLike runs a planned LIKE over a string column, one extent at a
// time. LIKE shares the compare family's NULL handling: a NULL operand
// fails before negation, so both polarities reject it.
func evalStrLike(v *storeView, sel, out *bitmap, colOp *operand, plan likePlan, negate bool) error {
	cv := &v.cols[colOp.col]
	for ei := range cv.exts {
		ext := &cv.exts[ei]
		rank, sortedVals := ext.dictOrder()
		var lo, hi uint32
		if plan.prefix {
			lo, hi = dictPrefixBounds(sortedVals, plan.lit)
		} else {
			lo, hi = dictLowerBound(sortedVals, plan.lit), dictUpperBound(sortedVals, plan.lit)
		}
		if err := evalCodeCmpWords(ext, sel, out, colOp.name, rank, lo, hi, negate); err != nil {
			return err
		}
	}
	return nil
}
