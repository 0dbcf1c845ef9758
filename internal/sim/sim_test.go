package sim_test

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/bench"
	"repro/internal/isps"
	"repro/internal/sim"
)

func machine(t *testing.T, src string) *sim.Machine {
	t.Helper()
	prog, err := isps.Parse("t", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return sim.New(prog)
}

func machineFor(t *testing.T, benchName string) *sim.Machine {
	t.Helper()
	src, err := bench.Source(benchName)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := isps.Parse(benchName, src)
	if err != nil {
		t.Fatal(err)
	}
	return sim.New(prog)
}

func set(t *testing.T, m *sim.Machine, name string, v uint64) {
	t.Helper()
	if err := m.Set(name, v); err != nil {
		t.Fatal(err)
	}
}

func get(t *testing.T, m *sim.Machine, name string) uint64 {
	t.Helper()
	v, err := m.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestBasicOps(t *testing.T) {
	m := machine(t, `
processor P {
    reg A<7:0> reg B<7:0> reg C<7:0> reg Z
    main m {
        A := 200
        B := 100
        C := A + B          ! 300 mod 256 = 44
        Z := A gtr B
        B := A xor 0xFF
        A := not A
    }
}`)
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if v := get(t, m, "C"); v != 44 {
		t.Errorf("C = %d, want 44 (mod 256)", v)
	}
	if v := get(t, m, "Z"); v != 1 {
		t.Errorf("Z = %d, want 1", v)
	}
	if v := get(t, m, "B"); v != 200^0xFF {
		t.Errorf("B = %d, want %d", v, 200^0xFF)
	}
	if v := get(t, m, "A"); v != (^uint64(200))&0xFF {
		t.Errorf("A = %d (not)", v)
	}
}

func TestSlicesAndConcat(t *testing.T) {
	m := machine(t, `
processor P {
    reg W<15:0> reg H<7:0> reg L<7:0>
    main m {
        W := 0xBEEF
        H := W<15:8>
        L := W<7:0>
        W := L @ H          ! swap bytes
        W<3:0> := 0
    }
}`)
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if v := get(t, m, "H"); v != 0xBE {
		t.Errorf("H = %#x, want 0xBE", v)
	}
	if v := get(t, m, "L"); v != 0xEF {
		t.Errorf("L = %#x, want 0xEF", v)
	}
	if v := get(t, m, "W"); v != 0xEFB0 {
		t.Errorf("W = %#x, want 0xEFB0 (swapped, low nibble cleared)", v)
	}
}

func TestNonZeroLowBitCarrier(t *testing.T) {
	// Carrier declared <15:8>: stored right-aligned, slices normalized.
	m := machine(t, `
processor P {
    reg H<15:8> reg B<3:0>
    main m {
        H := 0xAB
        B := H<11:8>
    }
}`)
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if v := get(t, m, "B"); v != 0xB {
		t.Errorf("B = %#x, want 0xB", v)
	}
}

func TestLoopsAndLeave(t *testing.T) {
	m := machine(t, `
processor P {
    reg N<7:0> reg SUM<15:0> reg I<7:0>
    main m {
        SUM := 0
        I := 0
        while 1 {
            I := I + 1
            SUM := SUM + I
            if I eql N { leave }
        }
    }
}`)
	set(t, m, "N", 10)
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if v := get(t, m, "SUM"); v != 55 {
		t.Errorf("SUM = %d, want 55", v)
	}
}

func TestRunawayLoopBudget(t *testing.T) {
	m := machine(t, `
processor P {
    reg A<7:0>
    main m { while 1 { A := A + 1 } }
}`)
	m.MaxSteps = 1000
	err := m.Run()
	if err == nil || !strings.Contains(err.Error(), "budget") {
		t.Fatalf("got %v, want step-budget error", err)
	}
}

func TestMemoryBounds(t *testing.T) {
	m := machine(t, `
processor P {
    mem M[0:3]<7:0> reg A<7:0> reg P2<2:0>
    main m { A := M[P2] }
}`)
	set(t, m, "P2", 5)
	if err := m.Run(); err == nil {
		t.Fatal("expected out-of-range memory error")
	}
}

func TestGCDComputesGCD(t *testing.T) {
	cases := []struct{ x, y, want uint64 }{
		{48, 36, 12}, {7, 13, 1}, {100, 100, 100}, {270, 192, 6}, {1, 999, 1},
	}
	for _, c := range cases {
		m := machineFor(t, "gcd")
		set(t, m, "XIN", c.x)
		set(t, m, "YIN", c.y)
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		if v := get(t, m, "R"); v != c.want {
			t.Errorf("gcd(%d,%d) = %d, want %d", c.x, c.y, v, c.want)
		}
	}
}

// Property: the GCD description agrees with Euclid for arbitrary inputs.
func TestGCDProperty(t *testing.T) {
	src, _ := bench.Source("gcd")
	prog, err := isps.Parse("gcd", src)
	if err != nil {
		t.Fatal(err)
	}
	gcd := func(a, b uint64) uint64 {
		for b != 0 {
			a, b = b, a%b
		}
		return a
	}
	f := func(x, y uint16) bool {
		if x == 0 || y == 0 {
			return true // subtraction GCD needs positive inputs
		}
		m := sim.New(prog)
		m.Set("XIN", uint64(x))
		m.Set("YIN", uint64(y))
		if err := m.Run(); err != nil {
			return false
		}
		v, _ := m.Get("R")
		return v == gcd(uint64(x), uint64(y))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the shift-add multiplier description multiplies.
func TestMult8Property(t *testing.T) {
	src, _ := bench.Source("mult8")
	prog, err := isps.Parse("mult8", src)
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b uint8) bool {
		m := sim.New(prog)
		m.Set("AIN", uint64(a))
		m.Set("BIN", uint64(b))
		if err := m.Run(); err != nil {
			return false
		}
		v, _ := m.Get("PRODUCT")
		return v == uint64(a)*uint64(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: the square-root description computes floor(sqrt(n)).
func TestSqrtProperty(t *testing.T) {
	src, _ := bench.Source("sqrt")
	prog, err := isps.Parse("sqrt", src)
	if err != nil {
		t.Fatal(err)
	}
	f := func(n uint16) bool {
		m := sim.New(prog)
		m.Set("NIN", uint64(n))
		if err := m.Run(); err != nil {
			return false
		}
		v, _ := m.Get("ROOT")
		return v*v <= uint64(n) && (v+1)*(v+1) > uint64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCounterBehavior(t *testing.T) {
	m := machineFor(t, "counter")
	set(t, m, "EN", 1)
	if err := m.RunN(5); err != nil {
		t.Fatal(err)
	}
	if v := get(t, m, "VALUE"); v != 5 {
		t.Errorf("counter = %d, want 5", v)
	}
	set(t, m, "EN", 0)
	if err := m.RunN(3); err != nil {
		t.Fatal(err)
	}
	if v := get(t, m, "VALUE"); v != 5 {
		t.Errorf("counter moved while disabled: %d", v)
	}
	set(t, m, "CLR", 1)
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if v := get(t, m, "VALUE"); v != 0 {
		t.Errorf("counter = %d after clear, want 0", v)
	}
}

func TestTrafficCycles(t *testing.T) {
	m := machineFor(t, "traffic")
	set(t, m, "CAR", 1)
	sawEWGreen := false
	for i := 0; i < 30; i++ {
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		// Safety invariant: never green in both directions.
		ns := get(t, m, "NSGREEN")
		ew := get(t, m, "EWGREEN")
		if ns == 1 && ew == 1 {
			t.Fatal("both directions green")
		}
		if ew == 1 {
			sawEWGreen = true
		}
	}
	if !sawEWGreen {
		t.Error("waiting car never got a green light")
	}
}

func TestAM2901AddAndLogic(t *testing.T) {
	m := machineFor(t, "am2901")
	// RAM[1]=9, RAM[2]=5; I = dest RAMF(3), fn ADD(0), src AB(1).
	if err := m.SetMem("RAM", 1, 9); err != nil {
		t.Fatal(err)
	}
	if err := m.SetMem("RAM", 2, 5); err != nil {
		t.Fatal(err)
	}
	set(t, m, "AADR", 1)
	set(t, m, "BADR", 2)
	set(t, m, "I", 3<<6|0<<3|1) // RAMF, ADD, AB
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.Mem("RAM", 2); v != 14 {
		t.Errorf("RAM[2] = %d, want 14 (9+5)", v)
	}
	if v := get(t, m, "Y"); v != 14 {
		t.Errorf("Y = %d, want 14", v)
	}
	// XOR D with Q: load Q first via dest QREG, src DZ.
	m2 := machineFor(t, "am2901")
	set(t, m2, "D", 0b1100)
	set(t, m2, "I", 0<<6|0<<3|7) // QREG, ADD, DZ: Q := D + 0
	if err := m2.Run(); err != nil {
		t.Fatal(err)
	}
	set(t, m2, "D", 0b1010)
	set(t, m2, "I", 1<<6|6<<3|6) // NOP, EXOR, DQ
	if err := m2.Run(); err != nil {
		t.Fatal(err)
	}
	if v := get(t, m2, "Y"); v != 0b0110 {
		t.Errorf("Y = %04b, want 0110", v)
	}
}

func TestMark1SubtractProgram(t *testing.T) {
	m := machineFor(t, "mark1")
	// Program: ACC := -M[20]; SUB M[21]; STO M[22]; STP.
	// LDN 20; SUB 21; STO 22; STP — computes -(a) - b.
	ldn := uint64(2)<<13 | 20
	sub := uint64(4)<<13 | 21
	sto := uint64(3)<<13 | 22
	stp := uint64(7) << 13
	for i, w := range []uint64{ldn, sub, sto, stp} {
		if err := m.SetMem("M", 1+i, w); err != nil {
			t.Fatal(err)
		}
	}
	m.SetMem("M", 20, 30)
	m.SetMem("M", 21, 12)
	set(t, m, "CI", 0) // CI increments before use: first fetch from 1
	for i := 0; i < 4; i++ {
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
	}
	got, _ := m.Mem("M", 22)
	var want uint64 = (1 << 32) - 42
	if got != want {
		t.Errorf("M[22] = %d, want %d (-(30)-12 mod 2^32)", got, want)
	}
}

// run6502 loads a machine-code image at 0x0200, points the reset vector at
// it, applies reset for one cycle, and executes the given number of
// instruction cycles.
func run6502(t *testing.T, program []uint64, cycles int) *sim.Machine {
	t.Helper()
	m := machineFor(t, "mcs6502")
	if err := m.Load("M", 0x0200, program); err != nil {
		t.Fatal(err)
	}
	m.SetMem("M", 0xFFFC, 0x00)
	m.SetMem("M", 0xFFFD, 0x02)
	set(t, m, "RES", 1)
	if err := m.Run(); err != nil { // reset + first instruction
		t.Fatal(err)
	}
	set(t, m, "RES", 0)
	if err := m.RunN(cycles - 1); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMCS6502Arithmetic(t *testing.T) {
	// LDA #$05; STA $10; LDA #$03; CLC; ADC $10; STA $11
	m := run6502(t, []uint64{
		0xA9, 0x05, 0x85, 0x10, 0xA9, 0x03, 0x18, 0x65, 0x10, 0x85, 0x11,
	}, 6)
	if v, _ := m.Mem("M", 0x11); v != 8 {
		t.Errorf("M[$11] = %d, want 8", v)
	}
	if v := get(t, m, "A"); v != 8 {
		t.Errorf("A = %d, want 8", v)
	}
}

func TestMCS6502CarryChain(t *testing.T) {
	// LDA #$FF; CLC; ADC #$02 -> A=1, C=1; then ADC #$00 -> A=2 (carry in).
	m := run6502(t, []uint64{
		0xA9, 0xFF, 0x18, 0x69, 0x02, 0x69, 0x00,
	}, 4)
	if v := get(t, m, "A"); v != 2 {
		t.Errorf("A = %d, want 2 (carry chained)", v)
	}
}

func TestMCS6502BranchTaken(t *testing.T) {
	// LDA #$00 (Z=1); BEQ +2 (skip LDA #$FF); NOP slot skipped; STA $13.
	m := run6502(t, []uint64{
		0xA9, 0x00, 0xF0, 0x02, 0xA9, 0xFF, 0x85, 0x13,
	}, 3)
	if v, _ := m.Mem("M", 0x13); v != 0 {
		t.Errorf("M[$13] = %d, want 0 (branch skipped the reload)", v)
	}
}

func TestMCS6502BranchNotTaken(t *testing.T) {
	// LDA #$01 (Z=0); BEQ +2; LDA #$77; STA $13.
	m := run6502(t, []uint64{
		0xA9, 0x01, 0xF0, 0x02, 0xA9, 0x77, 0x85, 0x13,
	}, 4)
	if v, _ := m.Mem("M", 0x13); v != 0x77 {
		t.Errorf("M[$13] = %#x, want 0x77 (branch not taken)", v)
	}
}

func TestMCS6502SubroutineAndStack(t *testing.T) {
	// JSR $0210; STA $14 ... sub at $0210: LDA #$07; RTS.
	program := make([]uint64, 0x20)
	copy(program, []uint64{0x20, 0x10, 0x02, 0x85, 0x14})
	program[0x10] = 0xA9
	program[0x11] = 0x07
	program[0x12] = 0x60
	// Initialize the stack pointer via reset (S := 0xFF).
	m := run6502(t, program, 4)
	if v, _ := m.Mem("M", 0x14); v != 7 {
		t.Errorf("M[$14] = %d, want 7 (through JSR/RTS)", v)
	}
	if v := get(t, m, "S"); v != 0xFF {
		t.Errorf("S = %#x, want 0xFF (balanced stack)", v)
	}
}

func TestMCS6502IndexedStore(t *testing.T) {
	// LDX #$04; LDA #$AB; STA $30,X -> M[$34].
	m := run6502(t, []uint64{
		0xA2, 0x04, 0xA9, 0xAB, 0x95, 0x30,
	}, 3)
	if v, _ := m.Mem("M", 0x34); v != 0xAB {
		t.Errorf("M[$34] = %#x, want 0xAB", v)
	}
}

func TestMCS6502ShiftAndFlags(t *testing.T) {
	// LDA #$81; ASL A -> A=$02, C=1; ROL A -> A=$05 (carry in).
	m := run6502(t, []uint64{
		0xA9, 0x81, 0x0A, 0x2A,
	}, 3)
	if v := get(t, m, "A"); v != 0x05 {
		t.Errorf("A = %#x, want 0x05", v)
	}
}

func TestMCS6502IndirectY(t *testing.T) {
	// Pointer at $20/$21 -> $0300; LDY #$02; LDA ($20),Y -> M[$0302].
	program := []uint64{0xA0, 0x02, 0xB1, 0x20, 0x85, 0x15}
	m := machineFor(t, "mcs6502")
	if err := m.Load("M", 0x0200, program); err != nil {
		t.Fatal(err)
	}
	m.SetMem("M", 0x20, 0x00)
	m.SetMem("M", 0x21, 0x03)
	m.SetMem("M", 0x0302, 0x5A)
	m.SetMem("M", 0xFFFC, 0x00)
	m.SetMem("M", 0xFFFD, 0x02)
	set(t, m, "RES", 1)
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	set(t, m, "RES", 0)
	if err := m.RunN(2); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.Mem("M", 0x15); v != 0x5A {
		t.Errorf("M[$15] = %#x, want 0x5A", v)
	}
}

func TestMCS6502Interrupt(t *testing.T) {
	// NOPs at $0200 with IRQ pending and I clear: the handler at $0400
	// stores $42 to $16 then loops on NOP.
	m := machineFor(t, "mcs6502")
	m.Load("M", 0x0200, []uint64{0xEA, 0xEA, 0xEA, 0xEA})
	m.Load("M", 0x0400, []uint64{0xA9, 0x42, 0x85, 0x16, 0xEA})
	m.SetMem("M", 0xFFFC, 0x00)
	m.SetMem("M", 0xFFFD, 0x02)
	m.SetMem("M", 0xFFFE, 0x00)
	m.SetMem("M", 0xFFFF, 0x04)
	set(t, m, "RES", 1)
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	set(t, m, "RES", 0)
	// Reset set the I flag; clear it with CLI by poking P directly.
	set(t, m, "P", 0)
	set(t, m, "IRQ", 1)
	if err := m.Run(); err != nil { // NOP executes, then IRQ is taken
		t.Fatal(err)
	}
	set(t, m, "IRQ", 0)
	if err := m.RunN(2); err != nil { // handler: LDA #$42, STA $16
		t.Fatal(err)
	}
	if v, _ := m.Mem("M", 0x16); v != 0x42 {
		t.Errorf("M[$16] = %#x, want 0x42 (interrupt handler ran)", v)
	}
}

func TestSetGetErrors(t *testing.T) {
	m := machineFor(t, "gcd")
	if err := m.Set("NOPE", 1); err == nil {
		t.Error("Set of unknown carrier should fail")
	}
	if _, err := m.Get("NOPE"); err == nil {
		t.Error("Get of unknown carrier should fail")
	}
	if err := m.SetMem("X", 0, 1); err == nil {
		t.Error("SetMem of non-memory should fail")
	}
	if _, err := m.Mem("X", 0); err == nil {
		t.Error("Mem of non-memory should fail")
	}
}

func TestWidthMasking(t *testing.T) {
	m := machineFor(t, "gcd")
	set(t, m, "X", 0x1FFFF) // 17 bits into a 16-bit register
	if v := get(t, m, "X"); v != 0xFFFF {
		t.Errorf("X = %#x, want masked 0xFFFF", v)
	}
}

func TestDeterministicRuns(t *testing.T) {
	out := func() uint64 {
		m := machineFor(t, "mult8")
		m.Set("AIN", 123)
		m.Set("BIN", 45)
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		v, _ := m.Get("PRODUCT")
		return v
	}
	if a, b := out(), out(); a != b {
		t.Errorf("nondeterministic: %d vs %d", a, b)
	}
	if out() != 123*45 {
		t.Errorf("product %d, want %d", out(), 123*45)
	}
}

// run370 loads a machine-code image and executes the given number of
// instruction cycles starting at IA=start.
func run370(t *testing.T, image map[int]uint64, start uint64, cycles int) *sim.Machine {
	t.Helper()
	m := machineFor(t, "ibm370")
	for addr, v := range image {
		if err := m.SetMem("M", addr, v); err != nil {
			t.Fatal(err)
		}
	}
	set(t, m, "IA", start)
	if err := m.RunN(cycles); err != nil {
		t.Fatal(err)
	}
	return m
}

func putProgram(image map[int]uint64, addr int, bytes ...uint64) {
	for i, b := range bytes {
		image[addr+i] = b
	}
}

func TestIBM370ArithmeticAndStore(t *testing.T) {
	image := map[int]uint64{}
	// LA R1,5; LA R2,7; AR R1,R2; ST R1,0x100
	putProgram(image, 0x10,
		0x41, 0x10, 0x00, 0x05,
		0x41, 0x20, 0x00, 0x07,
		0x1A, 0x12,
		0x50, 0x10, 0x01, 0x00)
	m := run370(t, image, 0x10, 4)
	if v, _ := m.Mem("R", 1); v != 12 {
		t.Errorf("R1 = %d, want 12", v)
	}
	want := []uint64{0, 0, 0, 12} // big endian word at 0x100
	for i, b := range want {
		if v, _ := m.Mem("M", 0x100+i); v != b {
			t.Errorf("M[%#x] = %d, want %d", 0x100+i, v, b)
		}
	}
	if v := get(t, m, "CC"); v != 2 {
		t.Errorf("CC = %d, want 2 (positive result)", v)
	}
}

func TestIBM370CompareAndBranch(t *testing.T) {
	image := map[int]uint64{}
	// LA R1,12; LA R2,7; CR R1,R2 (CC=2); BC 2,0x40 (taken); at 0x40: LA R3,1
	putProgram(image, 0x10,
		0x41, 0x10, 0x00, 0x0C,
		0x41, 0x20, 0x00, 0x07,
		0x19, 0x12,
		0x47, 0x20, 0x00, 0x40)
	putProgram(image, 0x40, 0x41, 0x30, 0x00, 0x01)
	m := run370(t, image, 0x10, 5)
	if v, _ := m.Mem("R", 3); v != 1 {
		t.Errorf("R3 = %d, want 1 (branch taken)", v)
	}
	// Untaken: BC 8 (mask for CC=0) with CC=2 falls through.
	image2 := map[int]uint64{}
	putProgram(image2, 0x10,
		0x41, 0x10, 0x00, 0x0C,
		0x41, 0x20, 0x00, 0x07,
		0x19, 0x12,
		0x47, 0x80, 0x00, 0x40,
		0x41, 0x40, 0x00, 0x02) // LA R4,2 on the fall-through path
	m2 := run370(t, image2, 0x10, 5)
	if v, _ := m2.Mem("R", 4); v != 2 {
		t.Errorf("R4 = %d, want 2 (branch not taken)", v)
	}
}

func TestIBM370SubroutineLinkage(t *testing.T) {
	image := map[int]uint64{}
	// BAL R14,0x30; (return lands at 0x14) LA R6,2
	putProgram(image, 0x10, 0x45, 0xE0, 0x00, 0x30)
	putProgram(image, 0x14, 0x41, 0x60, 0x00, 0x02)
	// Subroutine at 0x30: LA R5,9; BCR 15,R14
	putProgram(image, 0x30, 0x41, 0x50, 0x00, 0x09, 0x07, 0xFE)
	m := run370(t, image, 0x10, 4)
	if v, _ := m.Mem("R", 5); v != 9 {
		t.Errorf("R5 = %d, want 9 (subroutine ran)", v)
	}
	if v, _ := m.Mem("R", 6); v != 2 {
		t.Errorf("R6 = %d, want 2 (returned via BCR)", v)
	}
	if v, _ := m.Mem("R", 14); v != 0x14 {
		t.Errorf("R14 = %#x, want 0x14 (link address)", v)
	}
}

func TestIBM370LoadAndLogic(t *testing.T) {
	image := map[int]uint64{}
	// Word 0x000000F0 at 0x80; L R1,0x80; LA R2,0x0F; OR R1,R2; XR R2,R2
	putProgram(image, 0x80, 0x00, 0x00, 0x00, 0xF0)
	putProgram(image, 0x10,
		0x58, 0x10, 0x00, 0x80,
		0x41, 0x20, 0x00, 0x0F,
		0x16, 0x12,
		0x17, 0x22)
	m := run370(t, image, 0x10, 4)
	if v, _ := m.Mem("R", 1); v != 0xFF {
		t.Errorf("R1 = %#x, want 0xFF", v)
	}
	if v, _ := m.Mem("R", 2); v != 0 {
		t.Errorf("R2 = %d, want 0 (XR with itself)", v)
	}
	if v := get(t, m, "CC"); v != 0 {
		t.Errorf("CC = %d, want 0 (zero result)", v)
	}
}

func TestIBM370BaseDisplacement(t *testing.T) {
	image := map[int]uint64{}
	// LA R7,0x100; LA R1,0x23(R7) -> 0x123
	putProgram(image, 0x10,
		0x41, 0x70, 0x01, 0x00,
		0x41, 0x10, 0x70, 0x23)
	m := run370(t, image, 0x10, 2)
	if v, _ := m.Mem("R", 1); v != 0x123 {
		t.Errorf("R1 = %#x, want 0x123 (base+displacement)", v)
	}
}

func TestMCS6502CompareAndIndexOps(t *testing.T) {
	// LDX #$05; CPX #$05 (Z=1,C=1); LDY #$02; CPY #$03 (C=0); DEX; INY
	m := run6502(t, []uint64{
		0xA2, 0x05, 0xE0, 0x05, 0xA0, 0x02, 0xC0, 0x03, 0xCA, 0xC8,
	}, 6)
	if v := get(t, m, "X"); v != 4 {
		t.Errorf("X = %d, want 4", v)
	}
	if v := get(t, m, "Y"); v != 3 {
		t.Errorf("Y = %d, want 3", v)
	}
	// After CPY #$03 with Y=2: borrow, C=0... then DEX/INY set NZ only.
	p := get(t, m, "P")
	if p&1 != 0 {
		t.Errorf("C = 1, want 0 (2 < 3 borrows)")
	}
}

func TestMCS6502MemoryRMW(t *testing.T) {
	// INC $40 twice, DEC $41, ASL $42, LSR $43.
	m := machineFor(t, "mcs6502")
	m.SetMem("M", 0x40, 9)
	m.SetMem("M", 0x41, 9)
	m.SetMem("M", 0x42, 0x81)
	m.SetMem("M", 0x43, 0x81)
	m.Load("M", 0x0200, []uint64{
		0xE6, 0x40, 0xE6, 0x40, 0xC6, 0x41, 0x06, 0x42, 0x46, 0x43,
	})
	m.SetMem("M", 0xFFFC, 0x00)
	m.SetMem("M", 0xFFFD, 0x02)
	set(t, m, "RES", 1)
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	set(t, m, "RES", 0)
	if err := m.RunN(4); err != nil {
		t.Fatal(err)
	}
	checks := map[int]uint64{0x40: 11, 0x41: 8, 0x42: 0x02, 0x43: 0x40}
	for addr, want := range checks {
		if v, _ := m.Mem("M", addr); v != want {
			t.Errorf("M[%#x] = %#x, want %#x", addr, v, want)
		}
	}
	// LSR $43 shifted out bit 0 = 1 into carry.
	if p := get(t, m, "P"); p&1 != 1 {
		t.Errorf("C = 0, want 1 after LSR of odd value")
	}
}

func TestMCS6502StatusStack(t *testing.T) {
	// SEC; PHP; CLC; PLP -> carry restored.
	m := run6502(t, []uint64{0x38, 0x08, 0x18, 0x28}, 4)
	if p := get(t, m, "P"); p&1 != 1 {
		t.Errorf("C = 0, want 1 (PLP restored the pushed status)")
	}
	if v := get(t, m, "S"); v != 0xFF {
		t.Errorf("S = %#x, want 0xFF (balanced)", v)
	}
}

func TestMCS6502EorAndSbc(t *testing.T) {
	// LDA #$F0; EOR #$FF -> $0F; SEC; SBC #$05 -> $0A with C=1.
	m := run6502(t, []uint64{0xA9, 0xF0, 0x49, 0xFF, 0x38, 0xE9, 0x05}, 4)
	if v := get(t, m, "A"); v != 0x0A {
		t.Errorf("A = %#x, want 0x0A", v)
	}
	if p := get(t, m, "P"); p&1 != 1 {
		t.Errorf("C = 0, want 1 (no borrow)")
	}
	// Borrow case: LDA #$03; SEC; SBC #$05 -> $FE with C=0, N=1.
	m2 := run6502(t, []uint64{0xA9, 0x03, 0x38, 0xE9, 0x05}, 3)
	if v := get(t, m2, "A"); v != 0xFE {
		t.Errorf("A = %#x, want 0xFE", v)
	}
	p := get(t, m2, "P")
	if p&1 != 0 {
		t.Errorf("C = 1, want 0 (borrow)")
	}
	if p>>7 != 1 {
		t.Errorf("N = 0, want 1")
	}
}

func TestMCS6502RTIRestoresState(t *testing.T) {
	// BRK pushes PC and P, vectors to $0400; handler does RTI back.
	m := machineFor(t, "mcs6502")
	m.Load("M", 0x0200, []uint64{0x38, 0x00, 0xEA, 0xA9, 0x55, 0x85, 0x17})
	m.Load("M", 0x0400, []uint64{0x40}) // RTI
	m.SetMem("M", 0xFFFC, 0x00)
	m.SetMem("M", 0xFFFD, 0x02)
	m.SetMem("M", 0xFFFE, 0x00)
	m.SetMem("M", 0xFFFF, 0x04)
	set(t, m, "RES", 1)
	if err := m.Run(); err != nil { // SEC
		t.Fatal(err)
	}
	set(t, m, "RES", 0)
	// BRK (enters handler), RTI, NOP... BRK pushed PC after its pad byte.
	if err := m.RunN(5); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.Mem("M", 0x17); v != 0x55 {
		t.Errorf("M[$17] = %#x, want 0x55 (execution resumed after BRK)", v)
	}
	if p := get(t, m, "P"); p&1 != 1 {
		t.Errorf("C = 0, want 1 (RTI restored the pushed status)")
	}
}

func TestAM2901Shifts(t *testing.T) {
	// Load Q with 0b0110 (QREG, ADD, DZ), then RAMQD: both Q and RAM[B]
	// shift down.
	m := machineFor(t, "am2901")
	m.SetMem("RAM", 3, 0b1001)
	set(t, m, "D", 0b0110)
	set(t, m, "I", 0<<6|0<<3|7) // QREG, ADD, DZ: Q := D
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	set(t, m, "AADR", 3)
	set(t, m, "BADR", 3)
	set(t, m, "D", 0)
	set(t, m, "I", 4<<6|0<<3|3) // RAMQD, ADD, ZB: F := RAM[3]; shift both
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.Mem("RAM", 3); v != 0b0100 {
		t.Errorf("RAM[3] = %04b, want 0100 (F>>1)", v)
	}
	if v := get(t, m, "Q"); v != 0b0011 {
		t.Errorf("Q = %04b, want 0011 (Q>>1)", v)
	}
	// Up shift: RAMQU.
	set(t, m, "I", 6<<6|0<<3|3)
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.Mem("RAM", 3); v != 0b1000 {
		t.Errorf("RAM[3] = %04b, want 1000 (F<<1)", v)
	}
	if v := get(t, m, "Q"); v != 0b0110 {
		t.Errorf("Q = %04b, want 0110 (Q<<1)", v)
	}
}

func TestAM2901CarryAndFlags(t *testing.T) {
	m := machineFor(t, "am2901")
	m.SetMem("RAM", 1, 0xF)
	m.SetMem("RAM", 2, 0x1)
	set(t, m, "AADR", 1)
	set(t, m, "BADR", 2)
	set(t, m, "I", 1<<6|0<<3|1) // NOP dest, ADD, AB: F = 15+1 = 0 carry 1
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if v := get(t, m, "COUT"); v != 1 {
		t.Errorf("COUT = %d, want 1", v)
	}
	if v := get(t, m, "FZERO"); v != 1 {
		t.Errorf("FZERO = %d, want 1", v)
	}
	if v := get(t, m, "Y"); v != 0 {
		t.Errorf("Y = %d, want 0", v)
	}
}

func TestTraceWriter(t *testing.T) {
	m := machineFor(t, "counter")
	var sb strings.Builder
	m.Trace = &sb
	set(t, m, "EN", 1)
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "CNT := 0x1") {
		t.Errorf("trace missing increment:\n%s", out)
	}
	if !strings.Contains(out, "VALUE := 0x1") {
		t.Errorf("trace missing output drive:\n%s", out)
	}
}

// Memories are paged stores: a 64K-word memory reads 0 everywhere until
// written, its last word is addressable, writes are masked to the word
// width, and out-of-range accesses fail with the same messages as ever.
func TestPagedMemory(t *testing.T) {
	m := machine(t, `
processor P {
    mem M[0:65535]<7:0> mem S[16:31]<3:0> reg A<7:0>
    main m { A := M[0] }
}`)
	for _, addr := range []int{0, 4096, 65535} {
		if v, err := m.Mem("M", addr); err != nil || v != 0 {
			t.Errorf("untouched M[%d] = %#x, %v; want 0", addr, v, err)
		}
	}
	if err := m.SetMem("M", 65535, 0x1A5); err != nil {
		t.Fatal(err)
	}
	if v, err := m.Mem("M", 65535); err != nil || v != 0xA5 {
		t.Errorf("M[65535] = %#x, %v; want the masked 0xa5", v, err)
	}
	if err := m.SetMem("S", 31, 0xFF); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.Mem("S", 31); v != 0xF {
		t.Errorf("S[31] = %#x, want the masked 0xf", v)
	}
	for _, c := range []struct {
		name string
		addr int
		want string
	}{
		{"M", 65536, "sim: M[65536] outside [0:65535]"},
		{"M", -1, "sim: M[-1] outside [0:65535]"},
		{"S", 15, "sim: S[15] outside [16:31]"},
		{"S", 32, "sim: S[32] outside [16:31]"},
	} {
		if err := m.SetMem(c.name, c.addr, 1); err == nil || err.Error() != c.want {
			t.Errorf("SetMem(%s, %d) = %v, want %q", c.name, c.addr, err, c.want)
		}
		if _, err := m.Mem(c.name, c.addr); err == nil || err.Error() != c.want {
			t.Errorf("Mem(%s, %d) = %v, want %q", c.name, c.addr, err, c.want)
		}
	}
}
