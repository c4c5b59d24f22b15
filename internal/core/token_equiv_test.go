package core

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// The slot table must answer every call exactly as the map it replaced did.
// refTokenTable is that map table, kept verbatim (less its instrumentation)
// as the reference; one script of New, Withdraw, Complete, Fail, TryTake,
// TryTakeAs with the right and a wrong principal, redeem-twice and guessed
// tokens is run against both, and every step must agree: the same
// (event, done, err), the same issue numbers, Completions, Forgeries,
// Outstanding and forgery-hook arguments. The two tables' token *values*
// differ — the reference counts 1, 2, 3, …, a slot token is an index and a
// generation — and are related only through the pairs this file keeps.
//
// Mutation-checked: no generation bump on redeem, a bump on Withdraw, FIFO
// instead of LIFO reuse, and the issuer compared before the generation each
// fail TestTokenTableMatchesMap within its first seeds.

type refOp struct {
	qt     QToken
	done   bool
	ev     QEvent
	tbl    *refTokenTable
	tenant uint32
}

func (o *refOp) Complete(ev QEvent) {
	if o.done {
		panic("pdpix: operation completed twice")
	}
	o.done = true
	o.ev = ev
	o.tbl.completions++
}

type refTokenTable struct {
	next        QToken
	ops         map[QToken]*refOp
	completions uint64
	issuer      uint32
	forgeries   uint64
	onForgery   func(issuer, redeemer uint32)
}

func (t *refTokenTable) New() *refOp {
	t.next++
	op := &refOp{qt: t.next, tbl: t, tenant: t.issuer}
	t.ops[op.qt] = op
	return op
}

func (t *refTokenTable) Withdraw(op *refOp) {
	delete(t.ops, op.qt)
	if t.next == op.qt {
		t.next--
	}
}

func (t *refTokenTable) Lookup(qt QToken) (*refOp, bool) {
	op, ok := t.ops[qt]
	return op, ok
}

func (t *refTokenTable) TryTake(qt QToken) (QEvent, bool, error) {
	op, exists := t.ops[qt]
	if !exists {
		return QEvent{}, false, ErrBadQToken
	}
	return t.take(qt, op)
}

func (t *refTokenTable) TryTakeAs(qt QToken, tid uint32) (QEvent, bool, error) {
	op, exists := t.ops[qt]
	if !exists {
		return QEvent{}, false, ErrBadQToken
	}
	if op.tenant != tid {
		t.forgeries++
		if t.onForgery != nil {
			t.onForgery(op.tenant, tid)
		}
		return QEvent{}, false, ErrBadQToken
	}
	return t.take(qt, op)
}

func (t *refTokenTable) take(qt QToken, op *refOp) (QEvent, bool, error) {
	if !op.done {
		return QEvent{}, false, nil
	}
	delete(t.ops, qt)
	return op.ev, true, nil
}

func (t *refTokenTable) Outstanding() int {
	n := 0
	for _, op := range t.ops {
		if !op.done {
			n++
		}
	}
	return n
}

// tokenPair is one operation issued on both tables.
type tokenPair struct {
	rop    *refOp
	op     *Op
	tenant uint32
	gone   bool // redeemed: its tokens are stale from here on
}

// tokenScript is one run of both tables in lockstep. Every decision comes
// from the script's bytes, so a seeded test and the fuzzer drive the same
// interpreter and a failure is replayed from the bytes it prints.
type tokenScript struct {
	t      *testing.T
	script []byte
	pos    int

	ref *refTokenTable
	tbl *TokenTable
	// pairs is every operation issued and not withdrawn, redeemed ones
	// included: their stale tokens stay in play.
	pairs              []*tokenPair
	refHooks, tblHooks []string
	reused             bool   // a slot has been freed: token values part ways
	reissue            QToken // the token the next New must mint, after a Withdraw
	seen               map[string]int
}

// pick returns the script's next decision in [0, n).
func (s *tokenScript) pick(n int) int {
	if s.pos >= len(s.script) || n <= 0 {
		return 0
	}
	b := s.script[s.pos]
	s.pos++
	return int(b) % n
}

func (s *tokenScript) failf(format string, args ...any) {
	s.t.Helper()
	s.t.Fatalf("script %x, byte %d: %s", s.script, s.pos, fmt.Sprintf(format, args...))
}

func (s *tokenScript) mint() *tokenPair {
	p := &tokenPair{rop: s.ref.New(), op: s.tbl.New(), tenant: s.tbl.Issuer()}
	if p.op.seq != uint64(p.rop.qt) {
		s.failf("issue number %d, reference %d", p.op.seq, p.rop.qt)
	}
	if !s.reused && p.op.Token() != p.rop.qt {
		s.failf("a table with no slot reused yet minted %#x, want %d", p.op.Token(), p.rop.qt)
	}
	if s.reissue != 0 && p.op.Token() != s.reissue {
		s.failf("minted %#x after a withdrawal of %#x: a refused call changed later tokens", p.op.Token(), s.reissue)
	}
	s.reissue = 0
	if p.op.Token()>>63 != 0 || p.op.Token() == InvalidQToken {
		s.failf("minted %#x", p.op.Token())
	}
	return p
}

func (s *tokenScript) withdraw(p *tokenPair) {
	s.reissue = p.op.Token()
	s.reused = true
	s.ref.Withdraw(p.rop)
	s.tbl.Withdraw(p.op)
	s.seen["withdraw"]++
}

// some returns a pair for which ok holds, searching from a scripted start.
func (s *tokenScript) some(ok func(*tokenPair) bool) (int, *tokenPair) {
	for k, start := 0, s.pick(len(s.pairs)); k < len(s.pairs); k++ {
		i := (start + k) % len(s.pairs)
		if ok(s.pairs[i]) {
			return i, s.pairs[i]
		}
	}
	return -1, nil
}

// redeem runs one redemption attempt on both tables and compares.
func (s *tokenScript) redeem(what string, p *tokenPair, ref, tbl func() (QEvent, bool, error)) {
	wasGone := p.gone
	rev, rdone, rerr := ref()
	ev, done, err := tbl()
	if done != rdone || err != rerr || !reflect.DeepEqual(ev, rev) {
		s.failf("%s(%#x) = %+v, %v, %v; reference (%d) %+v, %v, %v", what, p.op.Token(), ev, done, err, p.rop.qt, rev, rdone, rerr)
	}
	switch {
	case done:
		p.gone, s.reused, s.reissue = true, true, 0
		s.seen["redeemed"]++
	case wasGone && errors.Is(err, ErrBadQToken):
		s.seen["stale"]++
		if s.tbl.slots[p.op.Token()&tokenIdxMask-1].op != nil {
			s.seen["stale, slot re-minted"]++
		}
	case errors.Is(err, ErrBadQToken):
		s.seen["foreign"]++
	}
}

// guess presents the slot table with a token nobody was handed and the
// reference with a number it never minted.
func (s *tokenScript) guess() {
	var qt QToken
	switch kind := s.pick(5); {
	case kind == 0 || len(s.pairs) == 0:
		qt = InvalidQToken
	case kind == 1:
		qt = QToken(len(s.tbl.slots) + 1 + s.pick(3)) // an index past the table
	default:
		qt = s.pairs[s.pick(len(s.pairs))].op.Token()
		switch kind {
		case 2:
			qt += QToken(1+s.pick(3)) << tokenIdxBits // a generation the slot has not reached
		case 3:
			qt |= 1 << 63 // demi.Combined's storage tag
		case 4:
			qt = qt&tokenIdxMask | QToken(s.pick(256))<<tokenIdxBits // any generation
		}
	}
	for _, p := range s.pairs {
		if !p.gone && p.op.Token() == qt {
			return // guessed right: not a forgery this step is about
		}
	}
	tid := uint32(s.pick(4))
	for _, take := range []func() (QEvent, bool, error){
		func() (QEvent, bool, error) { return s.tbl.TryTake(qt) },
		func() (QEvent, bool, error) { return s.tbl.TryTakeAs(qt, tid) },
		func() (QEvent, bool, error) { return s.ref.TryTakeAs(s.ref.next+1+QToken(s.pick(3)), tid) },
	} {
		if ev, done, err := take(); done || err != ErrBadQToken || !reflect.DeepEqual(ev, QEvent{}) {
			s.failf("guessed token %#x = %+v, %v, %v", qt, ev, done, err)
		}
	}
	if op, ok := s.tbl.Lookup(qt); ok || op != nil {
		s.failf("Lookup found guessed token %#x", qt)
	}
	s.seen["guessed"]++
}

// step runs one scripted operation.
func (s *tokenScript) step() {
	pending := func(p *tokenPair) bool { return !p.rop.done }
	switch op := s.pick(16); op {
	case 0, 1, 2:
		s.pairs = append(s.pairs, s.mint())
	case 3: // a refused libcall: minted and withdrawn at once
		s.withdraw(s.mint())
	case 4: // a withdrawal with other operations minted since
		if i, p := s.some(pending); p != nil {
			s.withdraw(p)
			s.pairs = append(s.pairs[:i], s.pairs[i+1:]...)
		}
	case 5, 6, 7:
		_, p := s.some(pending)
		if p == nil {
			break
		}
		ev := QEvent{QD: QDesc(p.rop.qt), Op: OpPop, NewQD: QDesc(s.pick(9))}
		if op == 7 {
			ev = QEvent{QD: QDesc(p.rop.qt), Op: OpPush, Err: ErrQueueClosed}
			p.op.Fail(ev.QD, ev.Op, ev.Err)
		} else {
			p.op.Complete(ev)
		}
		p.rop.Complete(ev)
	case 8, 9, 10:
		if len(s.pairs) == 0 {
			break
		}
		p := s.pairs[s.pick(len(s.pairs))]
		s.redeem("TryTake", p,
			func() (QEvent, bool, error) { return s.ref.TryTake(p.rop.qt) },
			func() (QEvent, bool, error) { return s.tbl.TryTake(p.op.Token()) })
	case 11, 12, 13:
		if len(s.pairs) == 0 {
			break
		}
		p := s.pairs[s.pick(len(s.pairs))]
		tid := p.tenant
		if op == 13 {
			tid = (tid + 1 + uint32(s.pick(3))) % 4 // never p's own
		}
		s.redeem("TryTakeAs", p,
			func() (QEvent, bool, error) { return s.ref.TryTakeAs(p.rop.qt, tid) },
			func() (QEvent, bool, error) { return s.tbl.TryTakeAs(p.op.Token(), tid) })
	case 14:
		s.guess()
	case 15:
		switch s.pick(3) {
		case 0:
			tid := uint32(s.pick(4))
			s.ref.issuer = tid
			s.tbl.SetIssuer(tid)
		case 1: // completing twice panics, redeemed since or not
			if _, p := s.some(func(p *tokenPair) bool { return p.rop.done }); p != nil {
				for _, complete := range []func(){func() { p.rop.Complete(QEvent{}) }, func() { p.op.Complete(QEvent{}) }} {
					if !panics(complete) {
						s.failf("completing %#x twice did not panic", p.op.Token())
					}
				}
				s.seen["completed twice"]++
			}
		case 2:
			if len(s.pairs) == 0 {
				break
			}
			p := s.pairs[s.pick(len(s.pairs))]
			rop, rok := s.ref.Lookup(p.rop.qt)
			op, ok := s.tbl.Lookup(p.op.Token())
			if ok != rok || (rop == p.rop) != (op == p.op) {
				s.failf("Lookup(%#x) = %v, %v; reference %v, %v", p.op.Token(), op == p.op, ok, rop == p.rop, rok)
			}
		}
	}
	if got, want := s.tbl.Issued(), uint64(s.ref.next); got != want {
		s.failf("Issued %d, reference %d", got, want)
	}
	if got, want := s.tbl.Completions(), s.ref.completions; got != want {
		s.failf("Completions %d, reference %d", got, want)
	}
	if got, want := s.tbl.Forgeries(), s.ref.forgeries; got != want {
		s.failf("Forgeries %d, reference %d", got, want)
	}
	if got, want := s.tbl.Outstanding(), s.ref.Outstanding(); got != want {
		s.failf("Outstanding %d, reference %d", got, want)
	}
	if !reflect.DeepEqual(s.tblHooks, s.refHooks) {
		s.failf("forgery hook saw %v, reference %v", s.tblHooks, s.refHooks)
	}
}

func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}

// runTokenScript drives both tables through script and returns how often
// each case the oracle exists for came up.
func runTokenScript(t *testing.T, script []byte) map[string]int {
	s := &tokenScript{t: t, script: script, tbl: NewTokenTable(), seen: map[string]int{},
		ref: &refTokenTable{ops: make(map[QToken]*refOp)}}
	s.ref.onForgery = func(issuer, redeemer uint32) {
		s.refHooks = append(s.refHooks, fmt.Sprint(issuer, redeemer))
	}
	s.tbl.SetForgeryHook(func(issuer, redeemer uint32) {
		s.tblHooks = append(s.tblHooks, fmt.Sprint(issuer, redeemer))
	})
	for s.pos < len(script) {
		s.step()
	}
	s.seen["forgeries"] += len(s.refHooks)
	return s.seen
}

func TestTokenTableMatchesMap(t *testing.T) {
	seen := map[string]int{}
	for seed := int64(1); seed <= 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		script := make([]byte, 100+rng.Intn(900))
		rng.Read(script)
		for what, n := range runTokenScript(t, script) {
			seen[what] += n
		}
	}
	// The sweep must actually have been through the cases it is there for.
	for _, what := range []string{"redeemed", "stale", "stale, slot re-minted", "foreign", "forgeries", "guessed", "withdraw", "completed twice"} {
		if seen[what] == 0 {
			t.Errorf("no script produced the case %q", what)
		}
	}
}

// FuzzTokenTable reads the same script from the fuzzer's bytes.
func FuzzTokenTable(f *testing.F) {
	f.Add([]byte{0, 0, 5, 0, 8, 0, 8, 0, 0, 8, 0})       // two mints, complete, mint, redeem, re-mint the freed slot, redeem the stale token
	f.Add([]byte{0, 3, 3, 0, 15, 0, 2, 0, 13, 1, 0, 14}) // refused calls, another issuer, a foreign redeem, a guess
	f.Fuzz(func(t *testing.T, script []byte) {
		runTokenScript(t, script)
	})
}
