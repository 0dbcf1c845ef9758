// Package rtlsim executes a synthesized register-transfer design at the
// control-step level: combinational operators chain within a step,
// register and memory writes commit at end-of-step, step-crossing values
// live in their holding registers, and SELECT/LOOP/CALL operators sequence
// sub-bodies exactly as the controller would.
//
// Its purpose is co-simulation: running the same stimulus through the
// behavioral ISPS interpreter (internal/sim) and through the design
// produced by an allocator, then comparing every architectural carrier.
// Agreement demonstrates that scheduling (hazard edges, end-of-step
// semantics) and value parking preserve the description's behavior —
// a check the 1983 system left to its expert reviewers.
package rtlsim

import (
	"fmt"
	"sort"

	"repro/internal/pagemem"
	"repro/internal/rtl"
	"repro/internal/vt"
)

// Machine executes one design. Memories live in paged stores
// (internal/pagemem), allocated a page at a time on nonzero writes, like
// internal/sim's.
type Machine struct {
	d     *rtl.Design
	regs  map[*rtl.Register]uint64
	mems  map[*rtl.Memory]*pagemem.Words
	ports map[*rtl.Port]uint64

	states map[string][]*rtl.State // body name -> ordered states

	// MaxSteps bounds executed control steps per Run (default 1,000,000).
	MaxSteps int
	steps    int
}

// New builds a machine for a design with all storage cleared. The design
// must carry its trace and complete bindings (as produced by the DAA and
// the baseline allocators).
func New(d *rtl.Design) (*Machine, error) {
	if d.Trace == nil {
		return nil, fmt.Errorf("rtlsim: design has no trace")
	}
	m := &Machine{
		d:        d,
		regs:     map[*rtl.Register]uint64{},
		mems:     map[*rtl.Memory]*pagemem.Words{},
		ports:    map[*rtl.Port]uint64{},
		states:   map[string][]*rtl.State{},
		MaxSteps: 1_000_000,
	}
	for _, mem := range d.Memories {
		m.mems[mem] = pagemem.New(mem.Words)
	}
	for _, s := range d.States {
		m.states[s.Body] = append(m.states[s.Body], s)
	}
	for _, ss := range m.states {
		sort.Slice(ss, func(i, j int) bool { return ss[i].Index < ss[j].Index })
	}
	return m, nil
}

func mask(width int) uint64 {
	if width >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(width)) - 1
}

func (m *Machine) carrier(name string) (*vt.Carrier, error) {
	c := m.d.Trace.CarrierByName(name)
	if c == nil {
		return nil, fmt.Errorf("rtlsim: unknown carrier %s", name)
	}
	return c, nil
}

// Set assigns a register or port carrier by its ISPS name.
func (m *Machine) Set(name string, v uint64) error {
	c, err := m.carrier(name)
	if err != nil {
		return err
	}
	switch c.Kind {
	case vt.CarReg:
		r := m.d.CarrierReg[c]
		if r == nil {
			return fmt.Errorf("rtlsim: carrier %s unbound", name)
		}
		m.regs[r] = v & mask(c.Width)
	case vt.CarPortIn, vt.CarPortOut:
		p := m.d.CarrierPort[c]
		if p == nil {
			return fmt.Errorf("rtlsim: port %s unbound", name)
		}
		m.ports[p] = v & mask(c.Width)
	default:
		return fmt.Errorf("rtlsim: %s is a memory; use SetMem", name)
	}
	return nil
}

// Get reads a register or port carrier by name.
func (m *Machine) Get(name string) (uint64, error) {
	c, err := m.carrier(name)
	if err != nil {
		return 0, err
	}
	switch c.Kind {
	case vt.CarReg:
		r := m.d.CarrierReg[c]
		if r == nil {
			return 0, fmt.Errorf("rtlsim: carrier %s not allocated (unused by the trace)", name)
		}
		return m.regs[r], nil
	case vt.CarPortIn, vt.CarPortOut:
		p := m.d.CarrierPort[c]
		if p == nil {
			return 0, fmt.Errorf("rtlsim: port %s not allocated (unused by the trace)", name)
		}
		return m.ports[p], nil
	}
	return 0, fmt.Errorf("rtlsim: %s is a memory; use Mem", name)
}

// SetMem writes one memory word.
func (m *Machine) SetMem(name string, addr int, v uint64) error {
	c, err := m.carrier(name)
	if err != nil {
		return err
	}
	mem := m.d.CarrierMem[c]
	if mem == nil {
		return fmt.Errorf("rtlsim: %s is not a memory", name)
	}
	if addr < 0 || addr >= mem.Words {
		return fmt.Errorf("rtlsim: %s[%d] out of range", name, addr)
	}
	m.mems[mem].Set(addr, v&mask(mem.Width))
	return nil
}

// Mem reads one memory word.
func (m *Machine) Mem(name string, addr int) (uint64, error) {
	c, err := m.carrier(name)
	if err != nil {
		return 0, err
	}
	mem := m.d.CarrierMem[c]
	if mem == nil {
		return 0, fmt.Errorf("rtlsim: %s is not a memory", name)
	}
	if addr < 0 || addr >= mem.Words {
		return 0, fmt.Errorf("rtlsim: %s[%d] out of range", name, addr)
	}
	return m.mems[mem].Get(addr), nil
}

// Load copies an image into a memory starting at addr.
func (m *Machine) Load(name string, addr int, image []uint64) error {
	for i, v := range image {
		if err := m.SetMem(name, addr+i, v); err != nil {
			return err
		}
	}
	return nil
}

// Run executes the design's entry body once.
func (m *Machine) Run() error {
	m.steps = 0
	_, _, err := m.execBody(m.d.Trace.Main, nil)
	return err
}

// RunN executes the entry body n times.
func (m *Machine) RunN(n int) error {
	for i := 0; i < n; i++ {
		if err := m.Run(); err != nil {
			return fmt.Errorf("cycle %d: %w", i, err)
		}
	}
	return nil
}

// execBody runs every control step of a body. When want is non-nil, the
// value it carries at definition time is captured and returned (used for
// loop conditions, which the controller samples combinationally).
func (m *Machine) execBody(b *vt.Body, want *vt.Value) (wanted uint64, left bool, err error) {
	for _, st := range m.states[b.Name] {
		m.steps++
		if m.steps > m.MaxSteps {
			return 0, false, fmt.Errorf("rtlsim: step budget %d exceeded in %s", m.MaxSteps, b.Name)
		}
		wires := map[*vt.Value]uint64{}
		var commits []func()
		var control *vt.Op

		ops := append([]*vt.Op(nil), st.Ops...)
		sort.Slice(ops, func(i, j int) bool { return ops[i].Seq < ops[j].Seq })
		for _, op := range ops {
			c, err := m.execOp(op, st, wires, &commits)
			if err != nil {
				return 0, false, err
			}
			if c {
				control = op
			}
			if want != nil && op.Result == want {
				wanted = wires[want]
			}
		}

		// End of step: commit writes, then park crossing values.
		for _, c := range commits {
			c()
		}
		for _, op := range ops {
			v := op.Result
			if v == nil {
				continue
			}
			if r := m.d.ValueReg[v]; r != nil {
				m.regs[r] = wires[v] & mask(r.Width)
			}
		}

		// Control transfer after the step completes.
		if control != nil {
			l, err := m.execControl(control, st, wires)
			if err != nil {
				return wanted, false, err
			}
			if l {
				return wanted, true, nil
			}
		}
	}
	return wanted, false, nil
}

// execOp evaluates one operator combinationally; writes are deferred into
// commits. It reports whether the operator transfers control.
func (m *Machine) execOp(op *vt.Op, st *rtl.State, wires map[*vt.Value]uint64, commits *[]func()) (bool, error) {
	arg := func(i int) (uint64, error) { return m.value(op.Args[i], st, wires) }
	switch op.Kind {
	case vt.OpConst:
		wires[op.Result] = op.Result.ConstVal
	case vt.OpRead:
		wires[op.Result] = m.readCarrier(op.Carrier)
	case vt.OpWrite:
		v, err := arg(0)
		if err != nil {
			return false, err
		}
		car := op.Carrier
		partial, hi, lo := op.Partial, op.Hi, op.Lo
		*commits = append(*commits, func() {
			m.writeCarrier(car, v, partial, hi, lo)
		})
	case vt.OpMemRead:
		idx, err := arg(0)
		if err != nil {
			return false, err
		}
		mem := m.d.CarrierMem[op.Carrier]
		if int(idx) >= mem.Words {
			return false, fmt.Errorf("rtlsim: %s[%d] out of range at %s", op.Carrier.Name, idx, op.Pos)
		}
		wires[op.Result] = m.mems[mem].Get(int(idx))
	case vt.OpMemWrite:
		idx, err := arg(0)
		if err != nil {
			return false, err
		}
		v, err := arg(1)
		if err != nil {
			return false, err
		}
		mem := m.d.CarrierMem[op.Carrier]
		if int(idx) >= mem.Words {
			return false, fmt.Errorf("rtlsim: %s[%d] out of range at %s", op.Carrier.Name, idx, op.Pos)
		}
		*commits = append(*commits, func() {
			m.mems[mem].Set(int(idx), v&mask(mem.Width))
		})
	case vt.OpSlice:
		x, err := arg(0)
		if err != nil {
			return false, err
		}
		wires[op.Result] = (x >> uint(op.Lo)) & mask(op.Hi-op.Lo+1)
	case vt.OpConcat:
		x, err := arg(0)
		if err != nil {
			return false, err
		}
		y, err := arg(1)
		if err != nil {
			return false, err
		}
		wires[op.Result] = ((x << uint(op.Args[1].Width)) | y) & mask(op.Result.Width)
	case vt.OpSelect, vt.OpLoop, vt.OpCall, vt.OpLeave:
		return true, nil
	case vt.OpNop:
	default:
		if !op.Kind.IsCompute() {
			return false, fmt.Errorf("rtlsim: unexpected operator %s", op.Kind)
		}
		v, err := m.compute(op, st, wires)
		if err != nil {
			return false, err
		}
		wires[op.Result] = v
	}
	return false, nil
}

func (m *Machine) compute(op *vt.Op, st *rtl.State, wires map[*vt.Value]uint64) (uint64, error) {
	x, err := m.value(op.Args[0], st, wires)
	if err != nil {
		return 0, err
	}
	var y uint64
	if len(op.Args) > 1 {
		y, err = m.value(op.Args[1], st, wires)
		if err != nil {
			return 0, err
		}
	}
	w := mask(op.Result.Width)
	switch op.Kind {
	case vt.OpAdd:
		return (x + y) & w, nil
	case vt.OpSub:
		return (x - y) & w, nil
	case vt.OpAnd:
		return x & y & w, nil
	case vt.OpOr:
		return (x | y) & w, nil
	case vt.OpXor:
		return (x ^ y) & w, nil
	case vt.OpNot:
		return ^x & w, nil
	case vt.OpNeg:
		return (-x) & w, nil
	case vt.OpEql:
		return b2u(x == y), nil
	case vt.OpNeq:
		return b2u(x != y), nil
	case vt.OpLss:
		return b2u(x < y), nil
	case vt.OpLeq:
		return b2u(x <= y), nil
	case vt.OpGtr:
		return b2u(x > y), nil
	case vt.OpGeq:
		return b2u(x >= y), nil
	case vt.OpShl:
		if y >= 64 {
			return 0, nil
		}
		return (x << y) & w, nil
	case vt.OpShr:
		if y >= 64 {
			return 0, nil
		}
		return (x >> y) & w, nil
	case vt.OpTest:
		return b2u(x != 0), nil
	}
	return 0, fmt.Errorf("rtlsim: unknown compute %s", op.Kind)
}

// value resolves an operand: same-step values come off the wires; plain
// register reads come from the (unchanged) register; everything else
// crossing steps comes from its holding register.
func (m *Machine) value(v *vt.Value, st *rtl.State, wires map[*vt.Value]uint64) (uint64, error) {
	if v.IsConst {
		return v.ConstVal, nil
	}
	def := v.Def
	if m.d.OpState[def] == st {
		return wires[v], nil
	}
	if def.Kind == vt.OpRead {
		return m.readCarrier(def.Carrier), nil
	}
	r := m.d.ValueReg[v]
	if r == nil {
		return 0, fmt.Errorf("rtlsim: value %s crosses steps without a register", v)
	}
	return m.regs[r] & mask(v.Width), nil
}

func (m *Machine) readCarrier(c *vt.Carrier) uint64 {
	if c.Kind == vt.CarPortIn {
		return m.ports[m.d.CarrierPort[c]]
	}
	return m.regs[m.d.CarrierReg[c]]
}

func (m *Machine) writeCarrier(c *vt.Carrier, v uint64, partial bool, hi, lo int) {
	if c.Kind == vt.CarPortOut {
		m.ports[m.d.CarrierPort[c]] = v & mask(c.Width)
		return
	}
	r := m.d.CarrierReg[c]
	if partial {
		fieldMask := mask(hi-lo+1) << uint(lo)
		m.regs[r] = (m.regs[r] &^ fieldMask) | ((v & mask(hi-lo+1)) << uint(lo))
		return
	}
	m.regs[r] = v & mask(c.Width)
}

// execControl runs the sub-body transfer of a SELECT/LOOP/CALL/LEAVE
// operator once its step has committed.
func (m *Machine) execControl(op *vt.Op, st *rtl.State, wires map[*vt.Value]uint64) (left bool, err error) {
	switch op.Kind {
	case vt.OpSelect:
		sel, err := m.value(op.Args[0], st, wires)
		if err != nil {
			return false, err
		}
		var chosen *vt.Branch
		for _, br := range op.Branches {
			if br.Otherwise {
				chosen = br
				break
			}
			for _, v := range br.Values {
				if v == sel {
					chosen = br
					break
				}
			}
			if chosen != nil {
				break
			}
		}
		if chosen == nil {
			return false, nil // no arm matched and no otherwise: fall through
		}
		_, l, err := m.execBody(chosen.Body, nil)
		return l, err
	case vt.OpLoop:
		switch op.LoopKind {
		case vt.LoopWhile:
			for {
				cond, _, err := m.execBody(op.CondBody, op.CondVal)
				if err != nil {
					return false, err
				}
				if cond == 0 {
					return false, nil
				}
				_, l, err := m.execBody(op.LoopBody, nil)
				if err != nil {
					return false, err
				}
				if l {
					return false, nil
				}
			}
		default: // LoopRepeat
			for i := uint64(0); i < op.Count; i++ {
				_, l, err := m.execBody(op.LoopBody, nil)
				if err != nil {
					return false, err
				}
				if l {
					return false, nil
				}
			}
			return false, nil
		}
	case vt.OpCall:
		_, _, err := m.execBody(op.Callee, nil)
		return false, err
	case vt.OpLeave:
		return true, nil
	}
	return false, nil
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
