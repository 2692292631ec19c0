package engine

import (
	"fmt"
	"math/bits"
	"strings"

	"repro/internal/sqlparse"
)

// Vectorized predicate compilation. A WHERE expression is compiled once
// per query into a tree of filterNodes whose eval produces a selection
// bitmap per shard. Evaluation is lazy over an input mask, which preserves
// the row-at-a-time engine's short-circuit semantics exactly: the right
// operand of AND only sees rows the left operand kept, the right operand
// of OR only sees rows the left operand rejected, so type errors hidden by
// short-circuiting stay hidden.
//
// Column references are resolved to column indexes at compile time, and
// kernels run over the shard store's column views (store.go): typed
// extents iterated with direct slice indexing — no map lookups, no Record
// materialization, no interface boxing on the float fast path. A store
// presents one extent per sealed segment plus one for its tail, so a
// memory-backed store, which never seals, presents one extent per column
// and its kernels run one flat loop.

// filterProgram is a compiled WHERE predicate.
type filterProgram struct {
	root filterNode
}

// eval computes out = rows of sel satisfying the predicate. out must be
// sized to the shard and is overwritten.
func (p *filterProgram) eval(v *storeView, sel, out *bitmap) error {
	for i := range out.words {
		out.words[i] = 0
	}
	return p.root.eval(v, sel, out)
}

type filterNode interface {
	// eval sets, in out, the subset of sel's rows satisfying the node.
	// out starts zeroed; implementations only set bits within sel.
	eval(v *storeView, sel, out *bitmap) error
}

// compileFilter compiles a predicate against a schema. A nil expression
// compiles to a nil program (keep everything). Columns absent from the
// schema are a compile-time error.
func compileFilter(schema Schema, colIdx map[string]int, e sqlparse.Expr) (*filterProgram, error) {
	if e == nil {
		return nil, nil
	}
	node, err := compileNode(schema, colIdx, e)
	if err != nil {
		return nil, err
	}
	return &filterProgram{root: node}, nil
}

func compileNode(schema Schema, colIdx map[string]int, e sqlparse.Expr) (filterNode, error) {
	switch x := e.(type) {
	case sqlparse.Logical:
		l, err := compileNode(schema, colIdx, x.Left)
		if err != nil {
			return nil, err
		}
		r, err := compileNode(schema, colIdx, x.Right)
		if err != nil {
			return nil, err
		}
		if x.Op == "AND" {
			return &andNode{l: l, r: r}, nil
		}
		return &orNode{l: l, r: r}, nil
	case sqlparse.Not:
		child, err := compileNode(schema, colIdx, x.Expr)
		if err != nil {
			return nil, err
		}
		return &notNode{child: child}, nil
	case sqlparse.Comparison:
		l, err := compileOperand(schema, colIdx, x.Left)
		if err != nil {
			return nil, err
		}
		r, err := compileOperand(schema, colIdx, x.Right)
		if err != nil {
			return nil, err
		}
		return &cmpNode{op: x.Op, left: l, right: r}, nil
	case sqlparse.Between:
		v, err := compileOperand(schema, colIdx, x.Expr)
		if err != nil {
			return nil, err
		}
		lo, err := compileOperand(schema, colIdx, x.Lo)
		if err != nil {
			return nil, err
		}
		hi, err := compileOperand(schema, colIdx, x.Hi)
		if err != nil {
			return nil, err
		}
		return &betweenNode{v: v, lo: lo, hi: hi, negate: x.Negate}, nil
	case sqlparse.In:
		v, err := compileOperand(schema, colIdx, x.Expr)
		if err != nil {
			return nil, err
		}
		items := make([]operand, len(x.List))
		for i, item := range x.List {
			op, err := compileOperand(schema, colIdx, item)
			if err != nil {
				return nil, err
			}
			items[i] = op
		}
		node := &inNode{v: v, items: items, negate: x.Negate}
		// FLOAT column IN (numeric literals...) takes the word kernel; the
		// constants are unboxed once at compile time. STRING columns get the
		// same treatment against all-string lists (rank-bitset kernel).
		if v.isFloatCol() {
			consts := make([]float64, 0, len(items))
			fast := true
			for i := range items {
				if items[i].isCol || items[i].lit.Kind != sqlparse.ValueNumber {
					fast = false
					break
				}
				consts = append(consts, items[i].lit.Num)
			}
			if fast {
				node.floatConsts, node.floatFast = consts, true
			}
		}
		if v.isStrCol() {
			consts := make([]string, 0, len(items))
			fast := true
			for i := range items {
				if items[i].isCol || items[i].lit.Kind != sqlparse.ValueString {
					fast = false
					break
				}
				consts = append(consts, items[i].lit.Str)
			}
			if fast {
				node.strConsts, node.strFast = consts, true
			}
		}
		return node, nil
	case sqlparse.Like:
		v, err := compileOperand(schema, colIdx, x.Expr)
		if err != nil {
			return nil, err
		}
		node := &likeNode{v: v, pattern: x.Pattern, negate: x.Negate}
		if v.isStrCol() {
			node.plan = planLike(x.Pattern)
		}
		return node, nil
	case sqlparse.IsNull:
		v, err := compileOperand(schema, colIdx, x.Expr)
		if err != nil {
			return nil, err
		}
		return &isNullNode{v: v, negate: x.Negate}, nil
	case sqlparse.Literal:
		if x.Value.Kind == sqlparse.ValueBool {
			return &constNode{value: x.Value.Bool}, nil
		}
		return nil, fmt.Errorf("sql: literal %s is not a predicate", x.Value)
	case sqlparse.ColumnRef:
		ci, ok := colIdx[x.Name]
		if !ok {
			return nil, fmt.Errorf("sql: %w %q", ErrUnknownColumn, x.Name)
		}
		return &boolColNode{name: x.Name, col: ci, isBool: schema[ci].Type == TypeBool}, nil
	default:
		return nil, fmt.Errorf("sql: cannot evaluate %T as predicate", e)
	}
}

// operand is a compiled scalar operand: a literal or a resolved column.
type operand struct {
	isCol bool
	col   int
	name  string
	typ   ColumnType
	lit   sqlparse.Value
}

func compileOperand(schema Schema, colIdx map[string]int, e sqlparse.Expr) (operand, error) {
	switch x := e.(type) {
	case sqlparse.Literal:
		return operand{lit: x.Value}, nil
	case sqlparse.ColumnRef:
		ci, ok := colIdx[x.Name]
		if !ok {
			return operand{}, fmt.Errorf("sql: %w %q", ErrUnknownColumn, x.Name)
		}
		return operand{isCol: true, col: ci, name: x.Name, typ: schema[ci].Type}, nil
	default:
		return operand{}, fmt.Errorf("sql: %s is not a scalar operand", e)
	}
}

// value fetches the operand's value at a row. Referencing a column the
// record never provided is an error, mirroring Record.Column + the
// row-at-a-time evaluator.
func (o *operand) value(v *storeView, row int) (sqlparse.Value, error) {
	if !o.isCol {
		return o.lit, nil
	}
	val, ok := v.cols[o.col].value(row)
	if !ok {
		return sqlparse.Value{}, fmt.Errorf("sql: %w %q", ErrUnknownColumn, o.name)
	}
	return val, nil
}

// isFloatCol reports whether the operand is a FLOAT column reference.
func (o *operand) isFloatCol() bool { return o.isCol && o.typ == TypeFloat }

type andNode struct{ l, r filterNode }

func (n *andNode) eval(v *storeView, sel, out *bitmap) error {
	tmp := borrowBitmap(sel.n)
	defer releaseBitmap(tmp)
	if err := n.l.eval(v, sel, tmp); err != nil {
		return err
	}
	return n.r.eval(v, tmp, out)
}

type orNode struct{ l, r filterNode }

func (n *orNode) eval(v *storeView, sel, out *bitmap) error {
	if err := n.l.eval(v, sel, out); err != nil {
		return err
	}
	rest := borrowBitmap(sel.n)
	defer releaseBitmap(rest)
	rest.copyFrom(sel)
	rest.andNot(out) // rows the left side rejected
	tmp := borrowBitmap(sel.n)
	defer releaseBitmap(tmp)
	if err := n.r.eval(v, rest, tmp); err != nil {
		return err
	}
	out.or(tmp)
	return nil
}

type notNode struct{ child filterNode }

func (n *notNode) eval(v *storeView, sel, out *bitmap) error {
	tmp := borrowBitmap(sel.n)
	defer releaseBitmap(tmp)
	if err := n.child.eval(v, sel, tmp); err != nil {
		return err
	}
	out.or(sel)
	out.andNot(tmp)
	return nil
}

type constNode struct{ value bool }

func (n *constNode) eval(v *storeView, sel, out *bitmap) error {
	if n.value {
		out.or(sel)
	}
	return nil
}

// boolColNode is a bare boolean column used as a predicate.
type boolColNode struct {
	name   string
	col    int
	isBool bool
}

func (n *boolColNode) eval(v *storeView, sel, out *bitmap) error {
	cv := &v.cols[n.col]
	for ei := range cv.exts {
		if err := n.evalWords(&cv.exts[ei], sel, out); err != nil {
			return err
		}
	}
	return nil
}

// evalWords is the word-at-a-time bool-column kernel: per 64-row word it
// masks the selection to the extent, validates defined/valid/type as word
// operations, and ORs the packed bool storage into the output.
func (n *boolColNode) evalWords(ext *colExtent, sel, out *bitmap) error {
	nw := (ext.n + 63) >> 6
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
		defw := ext.defined.words[w]
		undef := selw &^ defw
		invalid := (selw & defw) &^ ext.valid.words[w]
		if !n.isBool {
			invalid = selw & defw // a non-bool column errors on any defined row
		}
		if undef|invalid != 0 {
			// Report for the lowest offending row, exactly as an ascending
			// per-row walk would.
			if undef != 0 && (invalid == 0 || bits.TrailingZeros64(undef) < bits.TrailingZeros64(invalid)) {
				return fmt.Errorf("sql: %w %q", ErrUnknownColumn, n.name)
			}
			return fmt.Errorf("sql: column %q is not boolean", n.name)
		}
		ext.orWord(out, w, selw&boolWord(ext, lo, hi))
	}
	return nil
}

// boolWord packs rows [lo, hi) of the extent's bool storage into the low
// bits of one word.
func boolWord(ext *colExtent, lo, hi int) uint64 {
	var w uint64
	if ext.bools != nil {
		for i, b := range ext.bools[lo:hi] {
			w |= b2u(b) << uint(i)
		}
		return w
	}
	for i, b := range ext.boolBytes[lo:hi] {
		w |= b2u(b != 0) << uint(i)
	}
	return w
}

type cmpNode struct {
	op          sqlparse.CompareOp
	left, right operand
}

func (n *cmpNode) eval(v *storeView, sel, out *bitmap) error {
	// Fast path: FLOAT column vs numeric literal — the dominant predicate
	// shape. Direct slice compares, no Value boxing.
	if n.left.isFloatCol() && !n.right.isCol && n.right.lit.Kind == sqlparse.ValueNumber {
		return evalFloatCmp(v, sel, out, &n.left, n.op, n.right.lit.Num, false)
	}
	if n.right.isFloatCol() && !n.left.isCol && n.left.lit.Kind == sqlparse.ValueNumber {
		return evalFloatCmp(v, sel, out, &n.right, n.op, n.left.lit.Num, true)
	}
	// STRING column vs string literal: rank-interval word kernel over the
	// column's dictionary codes (filter_string.go). Gated on the literal
	// being a string so mixed-kind comparisons keep their per-row errors.
	if n.left.isStrCol() && !n.right.isCol && n.right.lit.Kind == sqlparse.ValueString {
		return evalStrCmp(v, sel, out, &n.left, n.op, n.right.lit.Str, false)
	}
	if n.right.isStrCol() && !n.left.isCol && n.left.lit.Kind == sqlparse.ValueString {
		return evalStrCmp(v, sel, out, &n.right, n.op, n.left.lit.Str, true)
	}
	return sel.forEach(func(row int) error {
		l, err := n.left.value(v, row)
		if err != nil {
			return err
		}
		r, err := n.right.value(v, row)
		if err != nil {
			return err
		}
		ok, err := compareValues(n.op, l, r)
		if err != nil {
			return err
		}
		if ok {
			out.set(row)
		}
		return nil
	})
}

// evalFloatCmp runs <col> <op> <c> (or <c> <op> <col> when flipped) over
// the selected rows of a float column, one storage extent at a time, with
// the word-at-a-time kernel: 64 rows per iteration, the compare word built
// with branch-free bit ops and ANDed against the selection/defined/valid
// words, no per-row closure call.
func evalFloatCmp(v *storeView, sel, out *bitmap, colOp *operand, op sqlparse.CompareOp, c float64, flipped bool) error {
	if flipped {
		// <c> <op> <col> mirrors to <col> <op'> <c>; exact for every float
		// (including NaN operands — both orderings compare false).
		op = flipCmp(op)
	}
	switch op {
	case sqlparse.OpEq, sqlparse.OpNe, sqlparse.OpLt, sqlparse.OpLe, sqlparse.OpGt, sqlparse.OpGe:
	default:
		return fmt.Errorf("sql: unknown operator %q", op)
	}
	cv := &v.cols[colOp.col]
	for ei := range cv.exts {
		if err := evalFloatCmpWords(&cv.exts[ei], sel, out, colOp.name, op, c); err != nil {
			return err
		}
	}
	return nil
}

// flipCmp mirrors a comparison across its operands: c op v == v flipCmp(op) c.
func flipCmp(op sqlparse.CompareOp) sqlparse.CompareOp {
	switch op {
	case sqlparse.OpLt:
		return sqlparse.OpGt
	case sqlparse.OpLe:
		return sqlparse.OpGe
	case sqlparse.OpGt:
		return sqlparse.OpLt
	case sqlparse.OpGe:
		return sqlparse.OpLe
	default:
		return op
	}
}

// b2u converts a bool to 0/1 without a branch (the compiler emits SETcc),
// which is what keeps the compare-word builders branch-light.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// evalFloatCmpWords is the word-at-a-time float compare kernel over one
// extent at any base. Per 64-row word: mask the selection to the extent,
// reject selected-but-undefined rows (word test — the error is
// row-independent), drop NULLs via the valid word, and build the compare
// result for the whole slab before a single OR into the output word.
func evalFloatCmpWords(ext *colExtent, sel, out *bitmap, colName string, op sqlparse.CompareOp, c float64) error {
	nw := (ext.n + 63) >> 6
	vals := ext.floats
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
		cand := selw & validWords[w] // NULL never compares true
		if cand == 0 {
			continue
		}
		ext.orWord(out, w, cand&cmpFloatWord(op, vals[lo:hi], c))
	}
	return nil
}

// cmpFloatWord compares up to 64 contiguous values against the constant
// and packs the outcomes into the low bits of one word. One dispatch per
// word, branch-free accumulation per row.
func cmpFloatWord(op sqlparse.CompareOp, vals []float64, c float64) uint64 {
	var w uint64
	switch op {
	case sqlparse.OpEq:
		for i, v := range vals {
			w |= b2u(v == c) << uint(i)
		}
	case sqlparse.OpNe:
		for i, v := range vals {
			w |= b2u(v != c) << uint(i)
		}
	case sqlparse.OpLt:
		for i, v := range vals {
			w |= b2u(v < c) << uint(i)
		}
	case sqlparse.OpLe:
		for i, v := range vals {
			w |= b2u(v <= c) << uint(i)
		}
	case sqlparse.OpGt:
		for i, v := range vals {
			w |= b2u(v > c) << uint(i)
		}
	case sqlparse.OpGe:
		for i, v := range vals {
			w |= b2u(v >= c) << uint(i)
		}
	}
	return w
}

// evalFloatMembership runs a set-membership predicate — BETWEEN or IN
// over numeric literals — on a float column, one storage extent at a
// time, with the same word kernel shape as evalFloatCmp. member
// builds the membership word for up to 64 contiguous values; negation is
// applied outside it so NULL handling stays in one place: membership of a
// NULL is three-valued false, and the generic path applies NOT after, so
// NOT BETWEEN / NOT IN keep NULL rows (mirroring compareValues).
func evalFloatMembership(v *storeView, sel, out *bitmap, colOp *operand, negate bool, member func([]float64) uint64) error {
	cv := &v.cols[colOp.col]
	for ei := range cv.exts {
		if err := evalFloatMembershipWords(&cv.exts[ei], sel, out, colOp.name, negate, member); err != nil {
			return err
		}
	}
	return nil
}

// evalFloatMembershipWords is the word-at-a-time membership kernel over
// one extent at any base: per 64-row word it masks the selection, rejects
// selected-but-undefined rows, builds the membership word for the whole
// value slab, and resolves negation (including the NULL-keeping NOT
// semantics) with pure word ops before a single OR into the output.
func evalFloatMembershipWords(ext *colExtent, sel, out *bitmap, colName string, negate bool, member func([]float64) uint64) error {
	nw := (ext.n + 63) >> 6
	vals := ext.floats
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
			inw := member(vals[lo:hi])
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

// betweenFloatWord packs v >= lo && v <= hi for up to 64 contiguous
// values into the low bits of one word — branch-free (NaN is never
// between anything).
func betweenFloatWord(vals []float64, lo, hi float64) uint64 {
	var w uint64
	for i, v := range vals {
		w |= (b2u(v >= lo) & b2u(v <= hi)) << uint(i)
	}
	return w
}

// inFloatWord packs membership in the constant list for up to 64
// contiguous values: one cmpFloatWord equality sweep per constant (IN
// lists are short, and per-constant slabs beat a per-row inner loop).
func inFloatWord(vals []float64, consts []float64) uint64 {
	var w uint64
	for _, c := range consts {
		w |= cmpFloatWord(sqlparse.OpEq, vals, c)
	}
	return w
}

type betweenNode struct {
	v, lo, hi operand
	negate    bool
}

func (n *betweenNode) eval(sv *storeView, sel, out *bitmap) error {
	// Fast path: FLOAT column BETWEEN numeric literals — word-at-a-time
	// membership kernel, same dispatch shape as cmpNode's float path.
	if n.v.isFloatCol() &&
		!n.lo.isCol && n.lo.lit.Kind == sqlparse.ValueNumber &&
		!n.hi.isCol && n.hi.lit.Kind == sqlparse.ValueNumber {
		return evalFloatMembership(sv, sel, out, &n.v, n.negate,
			func(vals []float64) uint64 { return betweenFloatWord(vals, n.lo.lit.Num, n.hi.lit.Num) })
	}
	// STRING column BETWEEN string literals: the bound pair becomes one
	// rank interval per extent dictionary.
	if n.v.isStrCol() &&
		!n.lo.isCol && n.lo.lit.Kind == sqlparse.ValueString &&
		!n.hi.isCol && n.hi.lit.Kind == sqlparse.ValueString {
		loLit, hiLit := n.lo.lit.Str, n.hi.lit.Str
		return evalStrMembership(sv, sel, out, &n.v, n.negate,
			func(rank []uint32, sortedVals []string) func([]uint32) uint64 {
				lo, hi := dictLowerBound(sortedVals, loLit), dictUpperBound(sortedVals, hiLit)
				return func(codes []uint32) uint64 { return codeRangeWord(codes, rank, lo, hi) }
			})
	}
	return sel.forEach(func(row int) error {
		v, err := n.v.value(sv, row)
		if err != nil {
			return err
		}
		lo, err := n.lo.value(sv, row)
		if err != nil {
			return err
		}
		hi, err := n.hi.value(sv, row)
		if err != nil {
			return err
		}
		geLo, err := compareValues(sqlparse.OpGe, v, lo)
		if err != nil {
			return err
		}
		leHi, err := compareValues(sqlparse.OpLe, v, hi)
		if err != nil {
			return err
		}
		res := geLo && leHi
		if n.negate {
			res = !res
		}
		if res {
			out.set(row)
		}
		return nil
	})
}

type inNode struct {
	v      operand
	items  []operand
	negate bool
	// floatFast marks a FLOAT column tested against all-numeric literals;
	// floatConsts are those literals unboxed at compile time. strFast /
	// strConsts are the string-column twin.
	floatFast   bool
	floatConsts []float64
	strFast     bool
	strConsts   []string
}

func (n *inNode) eval(sv *storeView, sel, out *bitmap) error {
	if n.floatFast {
		return evalFloatMembership(sv, sel, out, &n.v, n.negate,
			func(vals []float64) uint64 { return inFloatWord(vals, n.floatConsts) })
	}
	if n.strFast {
		return evalStrMembership(sv, sel, out, &n.v, n.negate,
			func(rank []uint32, sortedVals []string) func([]uint32) uint64 {
				// Resolve each literal to its exact rank; absent literals set
				// no bit, so the bitset IS the membership set.
				set := make([]uint64, (len(sortedVals)+63)/64+1)
				for _, c := range n.strConsts {
					if r := dictLowerBound(sortedVals, c); int(r) < len(sortedVals) && sortedVals[r] == c {
						set[r>>6] |= 1 << (r & 63)
					}
				}
				return func(codes []uint32) uint64 { return codeSetWord(codes, rank, set) }
			})
	}
	return sel.forEach(func(row int) error {
		v, err := n.v.value(sv, row)
		if err != nil {
			return err
		}
		found := false
		for i := range n.items {
			iv, err := n.items[i].value(sv, row)
			if err != nil {
				return err
			}
			eq, err := compareValues(sqlparse.OpEq, v, iv)
			if err != nil {
				return err
			}
			if eq {
				found = true
				break
			}
		}
		if n.negate {
			found = !found
		}
		if found {
			out.set(row)
		}
		return nil
	})
}

type likeNode struct {
	v       operand
	pattern string
	negate  bool
	// plan is the compile-time dictionary fast-path classification
	// (filter_string.go); only meaningful when v is a string column.
	plan likePlan
}

func (n *likeNode) eval(sv *storeView, sel, out *bitmap) error {
	if n.plan.fast && n.v.isStrCol() {
		return evalStrLike(sv, sel, out, &n.v, n.plan, n.negate)
	}
	return sel.forEach(func(row int) error {
		v, err := n.v.value(sv, row)
		if err != nil {
			return err
		}
		if v.Kind != sqlparse.ValueString {
			// A non-string (or NULL) operand fails LIKE before negation is
			// applied, mirroring sqlparse.Evaluate: NOT LIKE still rejects it.
			return nil
		}
		m := sqlparse.LikeMatch(n.pattern, v.Str)
		if n.negate {
			m = !m
		}
		if m {
			out.set(row)
		}
		return nil
	})
}

type isNullNode struct {
	v      operand
	negate bool
}

func (n *isNullNode) eval(sv *storeView, sel, out *bitmap) error {
	return sel.forEach(func(row int) error {
		v, err := n.v.value(sv, row)
		if err != nil {
			return err
		}
		isNull := v.Kind == sqlparse.ValueNull
		if n.negate {
			isNull = !isNull
		}
		if isNull {
			out.set(row)
		}
		return nil
	})
}

// compareValues mirrors sqlparse's comparison semantics: NULL never
// compares true, mixed kinds are an error, booleans only support = / !=.
func compareValues(op sqlparse.CompareOp, l, r sqlparse.Value) (bool, error) {
	if l.Kind == sqlparse.ValueNull || r.Kind == sqlparse.ValueNull {
		return false, nil
	}
	if l.Kind != r.Kind {
		return false, fmt.Errorf("sql: cannot compare %s with %s", l, r)
	}
	var cmp int
	switch l.Kind {
	case sqlparse.ValueNumber:
		switch {
		case l.Num < r.Num:
			cmp = -1
		case l.Num > r.Num:
			cmp = 1
		}
	case sqlparse.ValueString:
		cmp = strings.Compare(l.Str, r.Str)
	case sqlparse.ValueBool:
		if op != sqlparse.OpEq && op != sqlparse.OpNe {
			return false, fmt.Errorf("sql: booleans only support = and !=")
		}
		if l.Bool != r.Bool {
			cmp = 1
		}
	}
	switch op {
	case sqlparse.OpEq:
		return cmp == 0, nil
	case sqlparse.OpNe:
		return cmp != 0, nil
	case sqlparse.OpLt:
		return cmp < 0, nil
	case sqlparse.OpLe:
		return cmp <= 0, nil
	case sqlparse.OpGt:
		return cmp > 0, nil
	case sqlparse.OpGe:
		return cmp >= 0, nil
	default:
		return false, fmt.Errorf("sql: unknown operator %q", op)
	}
}
