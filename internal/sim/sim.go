// Package sim is a behavioral interpreter for the ISPS subset — the
// counterpart of the ISPS simulator in the CMU design-automation system
// the DAA lived in. It executes a parsed description with sequential ISPS
// semantics (statement order, not the synthesized control steps), which
// lets the test suite check that the benchmark descriptions actually
// compute what they claim: the GCD description computes gcds, the
// multiplier multiplies, and the MCS6502 description executes real 6502
// machine code.
//
// Values are unsigned, masked to their carrier widths; arithmetic is
// modulo 2^width; comparisons are unsigned, exactly matching the widths
// the semantic analyzer inferred. Concatenation a @ b places a in the
// high-order bits.
package sim

import (
	"fmt"
	"io"

	"repro/internal/isps"
	"repro/internal/pagemem"
)

// Machine interprets one ISPS program. Memories live in paged stores
// (internal/pagemem): a page is allocated on its first nonzero write, so
// building a machine for a 64K-word memory costs a page table, not the
// whole memory.
type Machine struct {
	prog *isps.Program
	regs map[*isps.Decl]uint64
	mems map[*isps.Decl]*pagemem.Words
	// MaxSteps bounds executed statements per Run (default 1,000,000).
	MaxSteps int
	// Trace, when non-nil, receives one line per committed assignment —
	// the ISPS simulator's execution trace.
	Trace io.Writer
	steps int
}

// New builds a machine with all carriers cleared.
func New(prog *isps.Program) *Machine {
	m := &Machine{
		prog:     prog,
		regs:     map[*isps.Decl]uint64{},
		mems:     map[*isps.Decl]*pagemem.Words{},
		MaxSteps: 1_000_000,
	}
	for _, d := range prog.Carriers() {
		if d.Kind == isps.DeclMem {
			m.mems[d] = pagemem.New(d.Words())
		}
	}
	return m
}

func mask(width int) uint64 {
	if width >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(width)) - 1
}

func (m *Machine) decl(name string) (*isps.Decl, error) {
	d := m.prog.Lookup(name)
	if d == nil {
		return nil, fmt.Errorf("sim: unknown carrier %s", name)
	}
	return d, nil
}

// Set assigns a register or port carrier.
func (m *Machine) Set(name string, v uint64) error {
	d, err := m.decl(name)
	if err != nil {
		return err
	}
	if d.Kind == isps.DeclMem {
		return fmt.Errorf("sim: %s is a memory; use SetMem", name)
	}
	m.regs[d] = v & mask(d.Width())
	return nil
}

// Get reads any non-memory carrier (including output ports).
func (m *Machine) Get(name string) (uint64, error) {
	d, err := m.decl(name)
	if err != nil {
		return 0, err
	}
	if d.Kind == isps.DeclMem {
		return 0, fmt.Errorf("sim: %s is a memory; use Mem", name)
	}
	return m.regs[d], nil
}

// SetMem writes one memory word.
func (m *Machine) SetMem(name string, addr int, v uint64) error {
	d, err := m.decl(name)
	if err != nil {
		return err
	}
	words, ok := m.mems[d]
	if !ok {
		return fmt.Errorf("sim: %s is not a memory", name)
	}
	if addr < d.ALo || addr > d.AHi {
		return fmt.Errorf("sim: %s[%d] outside [%d:%d]", name, addr, d.ALo, d.AHi)
	}
	words.Set(addr-d.ALo, v&mask(d.Width()))
	return nil
}

// Mem reads one memory word.
func (m *Machine) Mem(name string, addr int) (uint64, error) {
	d, err := m.decl(name)
	if err != nil {
		return 0, err
	}
	words, ok := m.mems[d]
	if !ok {
		return 0, fmt.Errorf("sim: %s is not a memory", name)
	}
	if addr < d.ALo || addr > d.AHi {
		return 0, fmt.Errorf("sim: %s[%d] outside [%d:%d]", name, addr, d.ALo, d.AHi)
	}
	return words.Get(addr - d.ALo), nil
}

// Load copies a byte-like program image into memory starting at addr.
func (m *Machine) Load(name string, addr int, image []uint64) error {
	for i, v := range image {
		if err := m.SetMem(name, addr+i, v); err != nil {
			return err
		}
	}
	return nil
}

// Run executes the entry body once.
func (m *Machine) Run() error {
	m.steps = 0
	err := m.execBlock(m.prog.Main.Body)
	if err == errLeave {
		return fmt.Errorf("sim: leave escaped the entry body")
	}
	return err
}

// RunN executes the entry body n times (n machine cycles).
func (m *Machine) RunN(n int) error {
	for i := 0; i < n; i++ {
		if err := m.Run(); err != nil {
			return fmt.Errorf("cycle %d: %w", i, err)
		}
	}
	return nil
}

// errLeave unwinds to the innermost loop.
var errLeave = fmt.Errorf("leave")

func (m *Machine) execBlock(stmts []isps.Stmt) error {
	for _, s := range stmts {
		if err := m.execStmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (m *Machine) execStmt(s isps.Stmt) error {
	m.steps++
	if m.steps > m.MaxSteps {
		return fmt.Errorf("sim: %s: step budget %d exceeded (runaway loop?)", s.StmtPos(), m.MaxSteps)
	}
	switch s := s.(type) {
	case *isps.Assign:
		return m.execAssign(s)
	case *isps.If:
		c, err := m.eval(s.Cond)
		if err != nil {
			return err
		}
		if c != 0 {
			return m.execBlock(s.Then)
		}
		return m.execBlock(s.Else)
	case *isps.Decode:
		sel, err := m.eval(s.Selector)
		if err != nil {
			return err
		}
		for _, c := range s.Cases {
			for _, v := range c.Values {
				if v == sel {
					return m.execBlock(c.Body)
				}
			}
		}
		return m.execBlock(s.Otherwise)
	case *isps.While:
		for {
			c, err := m.eval(s.Cond)
			if err != nil {
				return err
			}
			if c == 0 {
				return nil
			}
			if err := m.execBlock(s.Body); err != nil {
				if err == errLeave {
					return nil
				}
				return err
			}
			m.steps++
			if m.steps > m.MaxSteps {
				return fmt.Errorf("sim: %s: step budget exceeded in loop", s.Pos)
			}
		}
	case *isps.Repeat:
		for i := uint64(0); i < s.Count; i++ {
			if err := m.execBlock(s.Body); err != nil {
				if err == errLeave {
					return nil
				}
				return err
			}
		}
		return nil
	case *isps.Call:
		return m.execBlock(s.Callee.Body)
	case *isps.Leave:
		return errLeave
	case *isps.Nop:
		return nil
	}
	return fmt.Errorf("sim: unknown statement %T", s)
}

func (m *Machine) execAssign(s *isps.Assign) error {
	v, err := m.eval(s.RHS)
	if err != nil {
		return err
	}
	lv := s.LHS
	d := lv.Decl
	if d.Kind == isps.DeclMem {
		idx, err := m.eval(lv.Index)
		if err != nil {
			return err
		}
		if m.Trace != nil {
			fmt.Fprintf(m.Trace, "%s: %s[%d] := %#x\n", s.Pos, d.Name, idx, v&mask(d.Width()))
		}
		return m.SetMem(d.Name, int(idx), v)
	}
	if m.Trace != nil {
		fmt.Fprintf(m.Trace, "%s: %s := %#x\n", s.Pos, lv, v)
	}
	if lv.HasSel {
		lo := lv.Lo - d.Lo
		w := lv.Hi - lv.Lo + 1
		old := m.regs[d]
		fieldMask := mask(w) << uint(lo)
		m.regs[d] = (old &^ fieldMask) | ((v & mask(w)) << uint(lo))
		return nil
	}
	m.regs[d] = v & mask(d.Width())
	return nil
}

func (m *Machine) eval(e isps.Expr) (uint64, error) {
	switch e := e.(type) {
	case *isps.Num:
		return e.Value, nil
	case *isps.Ref:
		return m.evalRef(e)
	case *isps.UnOp:
		x, err := m.eval(e.X)
		if err != nil {
			return 0, err
		}
		switch e.Op {
		case isps.UnNot:
			return ^x & mask(e.Width), nil
		default: // UnNeg
			return (-x) & mask(e.Width), nil
		}
	case *isps.BinOp:
		return m.evalBinOp(e)
	}
	return 0, fmt.Errorf("sim: unknown expression %T", e)
}

func (m *Machine) evalRef(e *isps.Ref) (uint64, error) {
	if v, ok := m.prog.Consts[e.Name]; ok {
		return v, nil
	}
	d := e.Decl
	var v uint64
	if d.Kind == isps.DeclMem {
		idx, err := m.eval(e.Index)
		if err != nil {
			return 0, err
		}
		v, err = m.Mem(d.Name, int(idx))
		if err != nil {
			return 0, err
		}
	} else {
		v = m.regs[d]
	}
	if e.HasSel {
		lo := e.Lo - d.Lo
		w := e.Hi - e.Lo + 1
		return (v >> uint(lo)) & mask(w), nil
	}
	return v, nil
}

func (m *Machine) evalBinOp(e *isps.BinOp) (uint64, error) {
	x, err := m.eval(e.X)
	if err != nil {
		return 0, err
	}
	y, err := m.eval(e.Y)
	if err != nil {
		return 0, err
	}
	w := mask(e.Width)
	switch e.Op {
	case isps.OpAdd:
		return (x + y) & w, nil
	case isps.OpSub:
		return (x - y) & w, nil
	case isps.OpAnd:
		return x & y & w, nil
	case isps.OpOr:
		return (x | y) & w, nil
	case isps.OpXor:
		return (x ^ y) & w, nil
	case isps.OpEql:
		return b2u(x == y), nil
	case isps.OpNeq:
		return b2u(x != y), nil
	case isps.OpLss:
		return b2u(x < y), nil
	case isps.OpLeq:
		return b2u(x <= y), nil
	case isps.OpGtr:
		return b2u(x > y), nil
	case isps.OpGeq:
		return b2u(x >= y), nil
	case isps.OpSll:
		if y >= 64 {
			return 0, nil
		}
		return (x << y) & w, nil
	case isps.OpSrl:
		if y >= 64 {
			return 0, nil
		}
		return (x >> y) & w, nil
	case isps.OpConcat:
		return ((x << uint(e.Y.ResultWidth())) | y) & w, nil
	}
	return 0, fmt.Errorf("sim: unknown operator %v", e.Op)
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
