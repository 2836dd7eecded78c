// Package wiresym implements the wire-format symmetry check: every
// field the encoder emits must be read back with the same width, order
// and endianness. The analyzer pairs writer and reader functions inside
// the wire-format packages (codec, cart, archive) by name — writeX/
// readX, putX/getX, encodeX/decodeX, and Encode/Decode methods paired
// through their receiver type — and compares the *shape* of each pair:
// the sequence of primitive stream operations (byte, uvarint, varint,
// fixed-width field with endianness, raw bytes) the function performs,
// with loops grouped and branches expanded into the set of alternative
// op sequences.
//
// Shapes are extracted syntactically but type-directed: only operations
// on stream-typed values (bufio.Reader/Writer, io.Reader/Writer and
// values derived from them) count, buffer-fill idioms are recognized
// (binary.LittleEndian.PutUint32 into a local array followed by a
// stream Write of that array is one 4-byte little-endian field, as is
// io.ReadFull into a [4]byte decoded by binary.LittleEndian.Uint32, and
// bw.Write(binary.AppendUvarint(bw.AvailableBuffer(), v)) is one uvarint),
// unpaired same-package helpers are inlined, and calls to *paired*
// helpers match each other as single tokens — which is also what makes
// mutually recursive encodeNode/decodeNode comparable without
// unbounded expansion. Error-exit paths (early `return err` /
// fmt.Errorf returns) are pruned, so a reader's validation branches do
// not count as format alternatives.
//
// A pair is reported when the writer can emit an op sequence no reader
// path accepts, or the reader accepts a sequence the writer never
// emits. Findings anchor on the reader (the hostile-input side) and
// carry the writer's position plus the first diverging operations as
// related locations. Pairs whose shape cannot be classified (dynamic
// stream calls, gzip layering, too many branches) are skipped rather
// than guessed at.
//
// Scope: codec, cart, archive — the packages that define the SPARTAN
// stream formats (PAPER.md §2.2, docs/FORMAT.md).
package wiresym

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/callgraph"
)

// Analyzer flags asymmetric writer/reader pairs in wire-format packages.
var Analyzer = &analysis.Analyzer{
	Name: "wiresym",
	Doc:  "wiresym: pair writer/reader functions (writeX/readX, putX/getX, Encode*/Decode*) in the wire-format packages and compare their sequences of stream operations; report width, order or endianness asymmetries between what the encoder emits and what the decoder expects",
	Run:  run,
}

// Token kinds, ordered so a shape encodes deterministically.
const (
	kByte    = 'y' // one byte
	kUvarint = 'u' // binary uvarint
	kVarint  = 'v' // binary varint
	kFixed   = 'f' // fixed-width field (width, endian)
	kBlob    = 'B' // raw byte run (length known out of band)
	kCall    = 'c' // call to a paired helper, matched by pair key
	kLoop    = 'L' // repeated group
)

// tok is one wire operation in a linearized shape.
type tok struct {
	kind   byte
	width  int    // kFixed
	endian byte   // kFixed: 'l', 'b', or 0 when undetermined
	key    string // kCall
	pos    token.Pos
	loop   *shape // kLoop
}

// shape is the set of alternative success linearizations of a function
// (or loop body): one entry per branch combination that completes
// without an error exit.
type shape struct {
	lins [][]tok
}

func (s *shape) empty() bool {
	for _, lin := range s.lins {
		if len(lin) > 0 {
			return false
		}
	}
	return true
}

func tokEq(a, b tok) bool {
	if a.kind != b.kind {
		return false
	}
	switch a.kind {
	case kFixed:
		if a.width != b.width {
			return false
		}
		return a.endian == 0 || b.endian == 0 || a.endian == b.endian
	case kCall:
		return a.key == b.key
	case kLoop:
		return shapeEq(a.loop, b.loop)
	}
	return true
}

func linEq(a, b []tok) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !tokEq(a[i], b[i]) {
			return false
		}
	}
	return true
}

// shapeEq: every linearization of each side has an equal counterpart on
// the other — the symmetric format-equivalence the check enforces.
func shapeEq(a, b *shape) bool {
	return coveredBy(a, b) && coveredBy(b, a)
}

func coveredBy(a, b *shape) bool {
	for _, la := range a.lins {
		if matchLin(la, b) == nil {
			continue
		}
		return false
	}
	return true
}

// matchLin returns nil when some linearization of s equals lin, or the
// closest mismatch (longest shared prefix) for diagnosis.
func matchLin(lin []tok, s *shape) *divergence {
	var best *divergence
	for _, other := range s.lins {
		if linEq(lin, other) {
			return nil
		}
		d := diverge(lin, other)
		if best == nil || d.at > best.at {
			best = d
		}
	}
	if best == nil {
		best = &divergence{at: 0, want: lin, got: nil}
	}
	return best
}

// divergence locates the first differing op between a linearization and
// its closest counterpart.
type divergence struct {
	at        int
	want, got []tok
}

func diverge(want, got []tok) *divergence {
	i := 0
	for i < len(want) && i < len(got) && tokEq(want[i], got[i]) {
		i++
	}
	return &divergence{at: i, want: want, got: got}
}

func describe(t *tok) string {
	if t == nil {
		return "end of stream"
	}
	switch t.kind {
	case kByte:
		return "a single byte"
	case kUvarint:
		return "a uvarint"
	case kVarint:
		return "a varint"
	case kFixed:
		e := ""
		switch t.endian {
		case 'l':
			e = " little-endian"
		case 'b':
			e = " big-endian"
		}
		return fmt.Sprintf("a %d-byte%s field", t.width, e)
	case kBlob:
		return "a raw byte run"
	case kCall:
		return "the " + t.key + " sub-format"
	case kLoop:
		return "a repeated group"
	}
	return "an unknown operation"
}

func at(d *divergence) (want, got *tok) {
	if d.at < len(d.want) {
		want = &d.want[d.at]
	}
	if d.at < len(d.got) {
		got = &d.got[d.at]
	}
	return
}

// --- pair discovery -------------------------------------------------------

const (
	sideNone = iota
	sideWriter
	sideReader
)

var writerPrefixes = []string{"write", "put", "encode"}
var readerPrefixes = []string{"read", "get", "decode"}

// pairKey classifies a function as a writer or reader candidate and
// derives the name both sides share: writeColumn/readColumn → "column",
// putString/getString → "string", readSchemaLimited sheds the Limited
// suffix, and bare Encode/Decode methods key on their receiver type
// ((*Model).Encode / DecodeModel → "model").
func pairKey(fn *types.Func) (string, int) {
	name := fn.Name()
	lower := strings.ToLower(name)
	recvName := ""
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			recvName = strings.ToLower(n.Obj().Name())
		}
	}
	side := sideNone
	rest := ""
	for _, p := range writerPrefixes {
		if strings.HasPrefix(lower, p) {
			side, rest = sideWriter, lower[len(p):]
			break
		}
	}
	if side == sideNone {
		for _, p := range readerPrefixes {
			if strings.HasPrefix(lower, p) {
				side, rest = sideReader, lower[len(p):]
				break
			}
		}
	}
	if side == sideNone {
		return "", sideNone
	}
	rest = strings.TrimSuffix(rest, "limited")
	if rest == "" {
		// Bare Encode/Decode: only methods pair, through their receiver.
		if (lower == "encode" || lower == "decode") && recvName != "" {
			return recvName, side
		}
		return "", sideNone
	}
	return rest, side
}

// --- shape extraction -----------------------------------------------------

const (
	maxAlive = 48 // alternative linearizations alive at any point
	maxDone  = 96 // completed linearizations per function
)

type extractor struct {
	pass   *analysis.Pass
	decls  map[*types.Func]*ast.FuncDecl
	paired map[string]bool // keys with both a writer and a reader

	shapes     map[*types.Func]*shape // nil entry = incomparable
	inProgress map[*types.Func]bool
}

// env is one alive linearization under construction.
type env struct {
	toks []tok
	// pend is the trailing buffer-fill (binary.PutUvarint /
	// binary.<E>.PutUintN into a local array) not yet flushed by a
	// stream Write.
	pend *pending
}

type pending struct {
	buf    *types.Var
	kind   byte
	width  int
	endian byte
}

func (e *env) clone() *env {
	c := &env{toks: append([]tok(nil), e.toks...), pend: e.pend}
	return c
}

// walker linearizes one function body.
type walker struct {
	ex       *extractor
	info     *types.Info
	pkg      *types.Package
	overflow bool
	done     [][]tok
	// bufEndian records, per local buffer variable, the endianness any
	// binary.<E>.UintN / PutUintN usage implies for its fixed fields.
	bufEndian map[*types.Var]byte
	// loopExit collects envs that leave the current loop body early via
	// break/continue; nil outside loops.
	loopExit *[]*env
	// lastStmt is the function's final top-level statement: a `return
	// err` there is tail propagation, not an error exit.
	lastStmt ast.Stmt
}

// shapeOf extracts (and memoizes) fn's shape; nil means incomparable.
func (ex *extractor) shapeOf(fn *types.Func) *shape {
	if s, ok := ex.shapes[fn]; ok {
		return s
	}
	if ex.inProgress[fn] {
		return nil // unpaired recursion: cannot inline
	}
	decl := ex.decls[fn]
	if decl == nil || decl.Body == nil {
		ex.shapes[fn] = nil
		return nil
	}
	ex.inProgress[fn] = true
	defer delete(ex.inProgress, fn)

	w := &walker{
		ex:        ex,
		info:      ex.pass.TypesInfo,
		pkg:       ex.pass.Pkg,
		bufEndian: map[*types.Var]byte{},
	}
	w.scanEndian(decl.Body)
	if n := len(decl.Body.List); n > 0 {
		w.lastStmt = decl.Body.List[n-1]
	}
	alive := w.block(decl.Body.List, []*env{{}})
	for _, e := range alive {
		w.done = append(w.done, e.toks)
	}
	if w.overflow || len(w.done) == 0 {
		ex.shapes[fn] = nil
		return nil
	}
	s := &shape{lins: dedupLins(w.done)}
	ex.shapes[fn] = s
	return s
}

func dedupLins(lins [][]tok) [][]tok {
	var out [][]tok
	for _, lin := range lins {
		dup := false
		for _, have := range out {
			if linEq(lin, have) {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, lin)
		}
	}
	return out
}

// scanEndian pre-scans for binary.<Endian>.(Put)?UintN(buf, ...) so
// fixed reads through io.ReadFull know their decode endianness.
func (w *walker) scanEndian(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		_, ok = endianWidth(sel.Sel.Name)
		if !ok || len(call.Args) == 0 {
			return true
		}
		e := endianOf(w.info, sel.X)
		if e == 0 {
			return true
		}
		if v := bufVarOf(w.info, call.Args[0]); v != nil {
			w.bufEndian[v] = e
		}
		return true
	})
}

// endianWidth maps Uint16/PutUint32-style method names to field widths.
func endianWidth(name string) (int, bool) {
	name = strings.TrimPrefix(name, "Put")
	switch name {
	case "Uint16":
		return 2, true
	case "Uint32":
		return 4, true
	case "Uint64":
		return 8, true
	}
	return 0, false
}

// endianOf resolves binary.LittleEndian / binary.BigEndian receivers.
func endianOf(info *types.Info, x ast.Expr) byte {
	sel, ok := x.(*ast.SelectorExpr)
	if !ok {
		return 0
	}
	switch sel.Sel.Name {
	case "LittleEndian":
		return 'l'
	case "BigEndian":
		return 'b'
	}
	return 0
}

// bufVarOf unwraps buf[:], buf[:n], &buf and plain idents to the
// underlying buffer variable.
func bufVarOf(info *types.Info, x ast.Expr) *types.Var {
	for {
		switch cur := x.(type) {
		case *ast.ParenExpr:
			x = cur.X
		case *ast.SliceExpr:
			x = cur.X
		case *ast.UnaryExpr:
			if cur.Op != token.AND {
				return nil
			}
			x = cur.X
		case *ast.Ident:
			if v, ok := info.Uses[cur].(*types.Var); ok {
				return v
			}
			if v, ok := info.Defs[cur].(*types.Var); ok {
				return v
			}
			return nil
		default:
			return nil
		}
	}
}

// --- statement walk -------------------------------------------------------

func (w *walker) block(stmts []ast.Stmt, envs []*env) []*env {
	for _, st := range stmts {
		if len(envs) == 0 || w.overflow {
			return nil
		}
		envs = w.stmt(st, envs)
	}
	return envs
}

func cloneEnvs(envs []*env) []*env {
	out := make([]*env, len(envs))
	for i, e := range envs {
		out[i] = e.clone()
	}
	return out
}

func (w *walker) cap(envs []*env) []*env {
	envs = dedupEnvs(envs)
	if len(envs) > maxAlive {
		w.overflow = true
		return nil
	}
	return envs
}

func dedupEnvs(envs []*env) []*env {
	var out []*env
	for _, e := range envs {
		dup := false
		for _, have := range out {
			if have.pend == e.pend && linEq(have.toks, e.toks) {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, e)
		}
	}
	return out
}

func (w *walker) stmt(st ast.Stmt, envs []*env) []*env {
	switch x := st.(type) {
	case *ast.ExprStmt:
		w.scanExpr(x.X, envs)
	case *ast.AssignStmt:
		for _, r := range x.Rhs {
			w.scanExpr(r, envs)
		}
		for _, l := range x.Lhs {
			if _, ok := l.(*ast.Ident); !ok {
				w.scanExpr(l, envs)
			}
		}
	case *ast.DeclStmt:
		if gd, ok := x.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.scanExpr(v, envs)
					}
				}
			}
		}
	case *ast.IncDecStmt, *ast.EmptyStmt:
	case *ast.SendStmt:
		w.scanExpr(x.Value, envs)
	case *ast.GoStmt:
		w.scanExpr(x.Call, envs)
	case *ast.DeferStmt:
		w.scanExpr(x.Call, envs)
	case *ast.LabeledStmt:
		return w.stmt(x.Stmt, envs)
	case *ast.ReturnStmt:
		w.returnStmt(x, envs)
		return nil
	case *ast.BranchStmt:
		if x.Tok == token.GOTO {
			w.overflow = true
			return nil
		}
		if w.loopExit != nil {
			*w.loopExit = append(*w.loopExit, envs...)
		}
		return nil
	case *ast.IfStmt:
		return w.ifStmt(x, envs)
	case *ast.SwitchStmt:
		return w.switchStmt(x, envs)
	case *ast.TypeSwitchStmt:
		return w.typeSwitchStmt(x, envs)
	case *ast.ForStmt:
		if x.Init != nil {
			envs = w.stmt(x.Init, envs)
		}
		if x.Cond != nil {
			w.scanExpr(x.Cond, envs)
		}
		return w.loop(x.Body, x.Pos(), envs)
	case *ast.RangeStmt:
		w.scanExpr(x.X, envs)
		return w.loop(x.Body, x.Pos(), envs)
	case *ast.BlockStmt:
		return w.block(x.List, envs)
	case *ast.SelectStmt:
		w.overflow = true
		return nil
	}
	return envs
}

func (w *walker) ifStmt(x *ast.IfStmt, envs []*env) []*env {
	if x.Init != nil {
		envs = w.stmt(x.Init, envs)
	}
	w.scanExpr(x.Cond, envs)
	thenEnvs := w.block(x.Body.List, cloneEnvs(envs))
	var elseEnvs []*env
	switch e := x.Else.(type) {
	case nil:
		elseEnvs = envs
	case *ast.BlockStmt:
		elseEnvs = w.block(e.List, envs)
	case *ast.IfStmt:
		elseEnvs = w.ifStmt(e, envs)
	}
	return w.cap(append(thenEnvs, elseEnvs...))
}

func (w *walker) switchStmt(x *ast.SwitchStmt, envs []*env) []*env {
	if x.Init != nil {
		envs = w.stmt(x.Init, envs)
	}
	if x.Tag != nil {
		w.scanExpr(x.Tag, envs)
	}
	var out []*env
	hasDefault := false
	for _, cc := range x.Body.List {
		clause, ok := cc.(*ast.CaseClause)
		if !ok {
			continue
		}
		if clause.List == nil {
			hasDefault = true
		}
		out = append(out, w.block(clause.Body, cloneEnvs(envs))...)
	}
	if !hasDefault {
		out = append(out, envs...)
	}
	return w.cap(out)
}

func (w *walker) typeSwitchStmt(x *ast.TypeSwitchStmt, envs []*env) []*env {
	if x.Init != nil {
		envs = w.stmt(x.Init, envs)
	}
	var out []*env
	hasDefault := false
	for _, cc := range x.Body.List {
		clause, ok := cc.(*ast.CaseClause)
		if !ok {
			continue
		}
		if clause.List == nil {
			hasDefault = true
		}
		out = append(out, w.block(clause.Body, cloneEnvs(envs))...)
	}
	if !hasDefault {
		out = append(out, envs...)
	}
	return w.cap(out)
}

// loop linearizes a loop body from a fresh environment and appends one
// repeated-group token holding the body's alternatives. Loops with no
// wire operations contribute nothing.
func (w *walker) loop(body *ast.BlockStmt, pos token.Pos, envs []*env) []*env {
	var exited []*env
	savedExit := w.loopExit
	savedLast := w.lastStmt
	w.loopExit = &exited
	w.lastStmt = nil // a `return err` inside a loop body is an error exit
	alive := w.block(body.List, []*env{{}})
	w.loopExit = savedExit
	w.lastStmt = savedLast
	if w.overflow {
		return nil
	}
	alive = append(alive, exited...)
	var lins [][]tok
	for _, e := range alive {
		if len(e.toks) > 0 {
			lins = append(lins, e.toks)
		}
	}
	if len(lins) == 0 {
		return envs
	}
	t := tok{kind: kLoop, pos: pos, loop: &shape{lins: dedupLins(lins)}}
	for _, e := range envs {
		e.toks = append(e.toks, t)
	}
	return envs
}

// returnStmt completes or aborts the alive linearizations: a return
// carrying a non-nil error expression (an err identifier or a direct
// fmt.Errorf / errors.New call) anywhere but the function's final
// statement is an error exit and its linearizations are pruned.
func (w *walker) returnStmt(x *ast.ReturnStmt, envs []*env) {
	for _, r := range x.Results {
		w.scanExpr(r, envs)
	}
	if w.isErrorExit(x) {
		return
	}
	if len(w.done)+len(envs) > maxDone {
		w.overflow = true
		return
	}
	for _, e := range envs {
		w.done = append(w.done, e.toks)
	}
}

func (w *walker) isErrorExit(x *ast.ReturnStmt) bool {
	if ast.Stmt(x) == w.lastStmt {
		return false
	}
	for _, r := range x.Results {
		t := w.info.TypeOf(r)
		if t == nil || !isErrorType(t) {
			continue
		}
		switch e := unparen(r).(type) {
		case *ast.Ident:
			if e.Name != "nil" {
				return true
			}
		case *ast.SelectorExpr:
			return true // sentinel (io.EOF, pkg.ErrX) or stored error field
		case *ast.CallExpr:
			if callee, _, ok := callgraph.StaticCallee(w.info, e); ok && callee != nil {
				full := callee.FullName()
				if full == "fmt.Errorf" || full == "errors.New" {
					return true
				}
			}
		}
	}
	return false
}

func isErrorType(t types.Type) bool {
	n, ok := t.(*types.Named)
	return ok && n.Obj().Name() == "error" && n.Obj().Pkg() == nil
}

// --- expression scan: wire-op recognition ---------------------------------

// scanExpr walks an expression in evaluation-ish order, applying every
// recognized stream operation to the alive linearizations.
func (w *walker) scanExpr(x ast.Expr, envs []*env) {
	ast.Inspect(x, func(n ast.Node) bool {
		if w.overflow {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		return w.call(call, envs)
	})
}

// call classifies one call; the return value tells ast.Inspect whether
// to descend into the call's children.
func (w *walker) call(call *ast.CallExpr, envs []*env) bool {
	callee, dynamic, isCall := callgraph.StaticCallee(w.info, call)
	if !isCall {
		return true // conversion: scan the operand
	}
	// Stream method calls — concrete (bufio.Reader.ReadByte) or
	// interface dispatch (io.ByteReader.ReadByte): the receiver type
	// decides, not the dispatch kind.
	if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
		if _, isSel := w.info.Selections[sel]; isSel && isStreamType(w.info.TypeOf(sel.X)) {
			return w.streamMethod(sel.Sel.Name, call, envs)
		}
	}
	if callee == nil || dynamic {
		if w.streamArg(call, nil) != nil {
			w.overflow = true // dynamic call consuming the stream
			return false
		}
		return true
	}
	full := callee.FullName()

	switch full {
	case "encoding/binary.ReadUvarint":
		w.emit(envs, tok{kind: kUvarint, pos: call.Pos()})
		return false
	case "encoding/binary.ReadVarint":
		w.emit(envs, tok{kind: kVarint, pos: call.Pos()})
		return false
	case "encoding/binary.PutUvarint":
		w.setPending(call, envs, kUvarint, 0, 0)
		return false
	case "encoding/binary.PutVarint":
		w.setPending(call, envs, kVarint, 0, 0)
		return false
	case "io.ReadFull":
		if len(call.Args) == 2 && isStreamType(w.info.TypeOf(call.Args[0])) {
			w.emit(envs, w.fixedReadTok(call.Args[1], call.Pos()))
			return false
		}
		return true
	}

	// binary.LittleEndian.PutUint32(buf, v) and friends: buffer fill.
	if callee.Pkg() != nil && callee.Pkg().Path() == "encoding/binary" {
		if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
			if width, ok := endianWidth(sel.Sel.Name); ok {
				if strings.HasPrefix(sel.Sel.Name, "Put") {
					w.setPending(call, envs, kFixed, width, endianOf(w.info, sel.X))
				}
				return false // plain UintN decodes a buffer, not the stream
			}
		}
	}

	// Same-package helpers: paired ones match as tokens, pure unpaired
	// ones are inlined, anything else consuming the stream is opaque.
	if callee.Pkg() == w.pkg {
		if key, side := pairKey(callee); side != sideNone && key != "" && w.ex.paired[key] {
			if w.streamArg(call, callee) != nil {
				w.emit(envs, tok{kind: kCall, key: key, pos: call.Pos()})
				return false
			}
			return true
		}
		if w.streamArg(call, callee) != nil {
			sub := w.ex.shapeOf(callee)
			if sub == nil {
				w.overflow = true
				return false
			}
			w.splice(envs, sub)
			return false
		}
		return true
	}

	// Any other call that consumes the stream defeats shape extraction.
	if w.streamArg(call, callee) != nil {
		switch callee.Name() {
		case "Flush", "Close", "NewReader", "NewWriter", "NewReaderSize",
			"NewWriterSize", "LimitReader", "MultiReader", "MultiWriter":
			return true // stream plumbing, no bytes of its own
		}
		w.overflow = true
		return false
	}
	return true
}

// streamMethod recognizes the bufio/io method vocabulary on a
// stream-typed receiver; returns false to stop descending.
func (w *walker) streamMethod(name string, call *ast.CallExpr, envs []*env) bool {
	switch name {
	case "ReadByte", "WriteByte":
		w.emit(envs, tok{kind: kByte, pos: call.Pos()})
		return false
	case "Write":
		if len(call.Args) == 1 {
			w.flushOrBlob(call.Args[0], call.Pos(), envs)
			return false
		}
	case "WriteString", "ReadString", "ReadBytes", "Read":
		w.emit(envs, tok{kind: kBlob, pos: call.Pos()})
		return false
	case "Flush", "Close", "Reset", "Buffered", "Available", "AvailableBuffer":
		return true
	}
	// Unknown stream method (UnreadByte, Seek, …): opaque.
	w.overflow = true
	return false
}

// flushOrBlob resolves a stream Write: a write of one field appended to
// the stream's free buffer is that field; if the written buffer is the
// one a pending PutUvarint/PutUintN filled, the write is that field;
// otherwise it is a raw byte run. A fixed pending flushed through a
// constant-width slice takes the slice's width — writing buf[:2] after
// PutUint32 puts 2 bytes on the wire, not 4.
func (w *walker) flushOrBlob(arg ast.Expr, pos token.Pos, envs []*env) {
	if t, ok := w.appendTok(arg, pos); ok {
		w.emit(envs, t)
		return
	}
	v := bufVarOf(w.info, arg)
	for _, e := range envs {
		if v != nil && e.pend != nil && e.pend.buf == v {
			t := tok{kind: e.pend.kind, width: e.pend.width, endian: e.pend.endian, pos: pos}
			if t.kind == kFixed {
				if width, ok := w.constWidth(arg, v); ok {
					t.width = width
				}
			}
			e.toks = append(e.toks, t)
			e.pend = nil
			continue
		}
		e.toks = append(e.toks, tok{kind: kBlob, pos: pos})
	}
}

// appendTok recognizes the allocation-free field write
// bw.Write(binary.AppendUvarint(bw.AvailableBuffer(), v)), with
// AppendVarint or binary.<E>.AppendUintN in place of AppendUvarint: the
// appended-to buffer is empty, so the write is exactly that one field.
func (w *walker) appendTok(arg ast.Expr, pos token.Pos) (tok, bool) {
	call, ok := unparen(arg).(*ast.CallExpr)
	if !ok || len(call.Args) != 2 || !w.isAvailableBuffer(call.Args[0]) {
		return tok{}, false
	}
	callee, dynamic, _ := callgraph.StaticCallee(w.info, call)
	if callee == nil || dynamic || callee.Pkg() == nil || callee.Pkg().Path() != "encoding/binary" {
		return tok{}, false
	}
	switch callee.Name() {
	case "AppendUvarint":
		return tok{kind: kUvarint, pos: pos}, true
	case "AppendVarint":
		return tok{kind: kVarint, pos: pos}, true
	}
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !strings.HasPrefix(sel.Sel.Name, "Append") {
		return tok{}, false
	}
	width, ok := endianWidth(strings.TrimPrefix(sel.Sel.Name, "Append"))
	if !ok {
		return tok{}, false
	}
	return tok{kind: kFixed, width: width, endian: endianOf(w.info, sel.X), pos: pos}, true
}

// isAvailableBuffer reports whether x is an AvailableBuffer() call on a
// stream: an empty slice over the stream's free buffer space.
func (w *walker) isAvailableBuffer(x ast.Expr) bool {
	call, ok := unparen(x).(*ast.CallExpr)
	if !ok || len(call.Args) != 0 {
		return false
	}
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "AvailableBuffer" && isStreamType(w.info.TypeOf(sel.X))
}

func (w *walker) setPending(call *ast.CallExpr, envs []*env, kind byte, width int, endian byte) {
	if len(call.Args) == 0 {
		return
	}
	v := bufVarOf(w.info, call.Args[0])
	if v == nil {
		return
	}
	p := &pending{buf: v, kind: kind, width: width, endian: endian}
	for _, e := range envs {
		e.pend = p
	}
}

// fixedReadTok classifies io.ReadFull's destination: a slice of a
// [N]byte local with constant bounds is a fixed field of that many
// bytes (endianness from the pre-scan), any other destination is a raw
// byte run.
func (w *walker) fixedReadTok(dst ast.Expr, pos token.Pos) tok {
	v := bufVarOf(w.info, dst)
	if v != nil {
		if _, ok := v.Type().Underlying().(*types.Array); ok {
			if width, ok := w.constWidth(dst, v); ok {
				return tok{kind: kFixed, width: width, endian: w.bufEndian[v], pos: pos}
			}
		}
	}
	return tok{kind: kBlob, pos: pos}
}

// constWidth computes the byte count a slice of a fixed-size array
// denotes: buf[:] is the array length, buf[lo:hi] with constant bounds
// is hi-lo. Variable bounds yield no width.
func (w *walker) constWidth(x ast.Expr, v *types.Var) (int, bool) {
	se, ok := unparen(x).(*ast.SliceExpr)
	if !ok {
		arr, ok := v.Type().Underlying().(*types.Array)
		return int(arr.Len()), ok
	}
	lo := int64(0)
	if se.Low != nil {
		c, ok := w.intConst(se.Low)
		if !ok {
			return 0, false
		}
		lo = c
	}
	if se.High == nil {
		arr, ok := v.Type().Underlying().(*types.Array)
		if !ok {
			return 0, false
		}
		return int(arr.Len() - lo), true
	}
	hi, ok := w.intConst(se.High)
	if !ok || hi < lo {
		return 0, false
	}
	return int(hi - lo), true
}

func (w *walker) intConst(x ast.Expr) (int64, bool) {
	tv, ok := w.info.Types[x]
	if !ok || tv.Value == nil {
		return 0, false
	}
	return constant.Int64Val(tv.Value)
}

func (w *walker) emit(envs []*env, t tok) {
	for _, e := range envs {
		e.toks = append(e.toks, t)
	}
}

// splice inlines a straight-line helper's shape into every alive
// linearization. A branchy helper would have to fork the caller's env
// set in place, which the shared slice cannot express; no such helper
// exists in the wire packages, so those pairs go incomparable instead
// of risking a wrong merge.
func (w *walker) splice(envs []*env, sub *shape) {
	if sub.empty() {
		return
	}
	if len(sub.lins) > 1 {
		w.overflow = true
		return
	}
	for _, e := range envs {
		e.toks = append(e.toks, sub.lins[0]...)
	}
}

// streamArg returns the first stream-typed argument (or method
// receiver) of a call, or nil.
func (w *walker) streamArg(call *ast.CallExpr, callee *types.Func) ast.Expr {
	if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
		if _, isSel := w.info.Selections[sel]; isSel && isStreamType(w.info.TypeOf(sel.X)) {
			return sel.X
		}
	}
	for _, a := range call.Args {
		if isStreamType(w.info.TypeOf(a)) {
			return a
		}
	}
	return nil
}

// isStreamType reports the types the analyzer treats as the wire
// stream: bufio readers/writers and the io reader/writer interfaces.
func isStreamType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return false
	}
	switch n.Obj().Pkg().Path() {
	case "bufio":
		switch n.Obj().Name() {
		case "Reader", "Writer", "ReadWriter":
			return true
		}
	case "io":
		switch n.Obj().Name() {
		case "Reader", "Writer", "ReadWriter", "ByteReader", "ByteWriter", "ReadCloser", "WriteCloser":
			return true
		}
	}
	return false
}

func unparen(x ast.Expr) ast.Expr {
	for {
		p, ok := x.(*ast.ParenExpr)
		if !ok {
			return x
		}
		x = p.X
	}
}

// --- driver ---------------------------------------------------------------

func run(pass *analysis.Pass) error {
	if !pass.PackageBase("codec", "cart", "archive") {
		return nil
	}
	ex := &extractor{
		pass:       pass,
		decls:      map[*types.Func]*ast.FuncDecl{},
		paired:     map[string]bool{},
		shapes:     map[*types.Func]*shape{},
		inProgress: map[*types.Func]bool{},
	}
	writers := map[string][]candidate{}
	readers := map[string][]candidate{}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			ex.decls[fn] = fd
			key, side := pairKey(fn)
			if key == "" {
				continue
			}
			switch side {
			case sideWriter:
				writers[key] = append(writers[key], candidate{fn, fd})
			case sideReader:
				readers[key] = append(readers[key], candidate{fn, fd})
			}
		}
	}
	type pair struct {
		key            string
		writer, reader candidate
	}
	var pairs []pair
	for key, ws := range writers {
		rs := readers[key]
		// Ambiguous pairings (several writers or readers sharing a key)
		// are skipped: guessing which counterpart to compare against
		// produces noise, not findings.
		if len(ws) != 1 || len(rs) != 1 {
			continue
		}
		ex.paired[key] = true
		pairs = append(pairs, pair{key, ws[0], rs[0]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].reader.decl.Pos() < pairs[j].reader.decl.Pos() })

	for _, p := range pairs {
		ws := ex.shapeOf(p.writer.fn)
		rs := ex.shapeOf(p.reader.fn)
		if ws == nil || rs == nil {
			continue // incomparable: dynamic stream use or too branchy
		}
		report(pass, p.writer, p.reader, ws, rs)
	}
	return nil
}

// candidate is one side of a prospective writer/reader pair.
type candidate struct {
	fn   *types.Func
	decl *ast.FuncDecl
}

func report(pass *analysis.Pass, writer, reader candidate, ws, rs *shape) {
	// Writer emits a sequence no reader path accepts.
	for _, lin := range ws.lins {
		if d := matchLin(lin, rs); d != nil {
			diagnose(pass, writer, reader, d, true)
			return // one finding per pair: the first divergence
		}
	}
	// Reader accepts a sequence the writer never emits.
	for _, lin := range rs.lins {
		if d := matchLin(lin, ws); d != nil {
			diagnose(pass, writer, reader, d, false)
			return
		}
	}
}

func diagnose(pass *analysis.Pass, writer, reader candidate, d *divergence, writerSide bool) {
	want, got := at(d)
	var msg string
	if writerSide {
		msg = fmt.Sprintf(
			"wire-format asymmetry between %s and %s: after %d matching operations the writer emits %s but the reader expects %s",
			writer.fn.Name(), reader.fn.Name(), d.at, describe(want), describe(got))
	} else {
		msg = fmt.Sprintf(
			"wire-format asymmetry between %s and %s: after %d matching operations the reader expects %s but the writer emits %s",
			writer.fn.Name(), reader.fn.Name(), d.at, describe(want), describe(got))
	}
	related := []analysis.RelatedLocation{
		{Pos: writer.decl.Pos(), Message: "writer " + writer.fn.Name() + " declared here"},
	}
	wantTok, gotTok := want, got
	if !writerSide {
		wantTok, gotTok = got, want // related steps stay writer-first
	}
	if writerSide && wantTok != nil {
		related = append(related, analysis.RelatedLocation{Pos: wantTok.pos, Message: "writer emits " + describe(wantTok) + " here"})
	} else if !writerSide && gotTok != nil {
		related = append(related, analysis.RelatedLocation{Pos: gotTok.pos, Message: "writer emits " + describe(gotTok) + " here"})
	}
	if writerSide && gotTok != nil {
		related = append(related, analysis.RelatedLocation{Pos: gotTok.pos, Message: "reader reads " + describe(gotTok) + " here"})
	} else if !writerSide && wantTok != nil {
		related = append(related, analysis.RelatedLocation{Pos: wantTok.pos, Message: "reader reads " + describe(wantTok) + " here"})
	}
	pos := reader.decl.Pos()
	if writerSide {
		if got != nil {
			pos = got.pos
		}
	} else if want != nil {
		pos = want.pos
	}
	pass.Report(analysis.Diagnostic{Pos: pos, Message: msg, Related: related})
}
