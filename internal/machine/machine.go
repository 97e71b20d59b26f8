// Package machine describes the target of the compiler: one processing
// element (cell) of a Warp-like systolic array.
//
// Each cell is a horizontally microcoded machine: every cycle issues one
// wide instruction word containing at most one operation per functional
// unit. The units are pipelined with multi-cycle latencies, which is what
// makes scheduling (and software pipelining in particular) both necessary
// and profitable — exactly the property of the real Warp cell that made its
// optimizing compiler slow enough to be worth parallelizing.
package machine

import "fmt"

// Unit identifies a functional-unit slot of the instruction word.
type Unit int

const (
	// ALU performs integer arithmetic, logical operations and comparisons.
	ALU Unit = iota
	// FADD performs floating-point add/subtract/compare and conversions.
	FADD
	// FMUL performs floating-point multiply, divide and square root.
	FMUL
	// MEM performs data-memory loads and stores.
	MEM
	// CTRL is the sequencer slot: branches, calls, returns, halt.
	CTRL
	// IO accesses the inter-cell queues (X and Y pathways).
	IO

	// NumUnits is the number of slots in one instruction word.
	NumUnits
)

func (u Unit) String() string {
	switch u {
	case ALU:
		return "ALU"
	case FADD:
		return "FADD"
	case FMUL:
		return "FMUL"
	case MEM:
		return "MEM"
	case CTRL:
		return "CTRL"
	case IO:
		return "IO"
	}
	return fmt.Sprintf("unit(%d)", int(u))
}

// Reg is a physical register number. The cell has NumRegs general registers
// holding 32-bit words (int or float); R0 reads as zero and ignores writes.
type Reg uint8

// NumRegs is the size of the cell's register file.
const NumRegs = 64

// RZero is the hardwired zero register.
const RZero Reg = 0

func (r Reg) String() string { return fmt.Sprintf("r%d", uint8(r)) }

// Opcode enumerates the cell's operations across all units.
type Opcode uint8

const (
	NOP Opcode = iota

	// ALU unit.
	IADD // dst = a + b
	ISUB // dst = a - b
	IMUL // dst = a * b
	IDIV // dst = a / b (traps on zero)
	IREM // dst = a % b (traps on zero)
	INEG // dst = -a
	IABS // dst = |a|
	IMIN // dst = min(a, b)
	IMAX // dst = max(a, b)
	AND  // dst = a & b (booleans are 0/1 words)
	OR   // dst = a | b
	XOR  // dst = a ^ b
	NOT  // dst = a == 0 ? 1 : 0 (logical complement of a 0/1 word)
	MOV  // dst = a
	LDI  // dst = imm (32-bit literal from the instruction word)
	ICMPEQ
	ICMPNE
	ICMPLT
	ICMPLE
	ICMPGT
	ICMPGE

	// FADD unit.
	FADDOP // dst = a + b
	FSUBOP // dst = a - b
	FNEG   // dst = -a
	FABS   // dst = |a|
	FMIN
	FMAX
	CVTIF // dst = float(a)
	CVTFI // dst = int(a), truncating toward zero
	FCMPEQ
	FCMPNE
	FCMPLT
	FCMPLE
	FCMPGT
	FCMPGE

	// FMUL unit.
	FMULOP // dst = a * b
	FDIV   // dst = a / b (unpipelined)
	FSQRT  // dst = sqrt(a) (unpipelined, traps on negative)

	// MEM unit. Addresses are word addresses in the cell's data memory.
	LOAD  // dst = mem[a + imm]
	STORE // mem[a + imm] = b

	// CTRL unit. Branch targets are word addresses in program memory,
	// resolved by the linker from symbolic labels.
	JMP  // goto imm
	BT   // if a != 0 goto imm
	BF   // if a == 0 goto imm
	CALL // push return address on the sequencer stack; goto imm
	RET  // pop return address
	HALT // stop the cell

	// IO unit.
	RECVX // dst = dequeue from the X input queue (stalls while empty)
	RECVY // dst = dequeue from the Y input queue
	SENDX // enqueue a into the X output queue (stalls while full)
	SENDY // enqueue a into the Y output queue

	numOpcodes
)

// OpInfo describes an opcode's static properties.
type OpInfo struct {
	Name string
	Unit Unit
	// Latency is the number of cycles before the result may be consumed.
	// Latency 1 means the result is available in the next cycle.
	Latency int
	// Blocking marks unpipelined operations that occupy their unit for
	// Latency cycles (FDIV, FSQRT); pipelined operations accept a new
	// operation every cycle regardless of latency.
	Blocking bool
	// HasDst, NumSrc and HasImm describe the operand shape.
	HasDst bool
	NumSrc int
	HasImm bool
}

// Latencies of the pipelined units. The floating units have the deep
// pipelines that motivate software pipelining on this machine.
const (
	aluLat  = 1
	imulLat = 3
	idivLat = 10
	fLat    = 5 // FADD/FMUL pipeline depth
	fdivLat = 12
	sqrtLat = 15
	loadLat = 2
)

var opInfos = [numOpcodes]OpInfo{
	NOP: {Name: "nop", Unit: ALU, Latency: 1},

	IADD:   {Name: "iadd", Unit: ALU, Latency: aluLat, HasDst: true, NumSrc: 2},
	ISUB:   {Name: "isub", Unit: ALU, Latency: aluLat, HasDst: true, NumSrc: 2},
	IMUL:   {Name: "imul", Unit: ALU, Latency: imulLat, HasDst: true, NumSrc: 2},
	IDIV:   {Name: "idiv", Unit: ALU, Latency: idivLat, Blocking: true, HasDst: true, NumSrc: 2},
	IREM:   {Name: "irem", Unit: ALU, Latency: idivLat, Blocking: true, HasDst: true, NumSrc: 2},
	INEG:   {Name: "ineg", Unit: ALU, Latency: aluLat, HasDst: true, NumSrc: 1},
	IABS:   {Name: "iabs", Unit: ALU, Latency: aluLat, HasDst: true, NumSrc: 1},
	IMIN:   {Name: "imin", Unit: ALU, Latency: aluLat, HasDst: true, NumSrc: 2},
	IMAX:   {Name: "imax", Unit: ALU, Latency: aluLat, HasDst: true, NumSrc: 2},
	AND:    {Name: "and", Unit: ALU, Latency: aluLat, HasDst: true, NumSrc: 2},
	OR:     {Name: "or", Unit: ALU, Latency: aluLat, HasDst: true, NumSrc: 2},
	XOR:    {Name: "xor", Unit: ALU, Latency: aluLat, HasDst: true, NumSrc: 2},
	NOT:    {Name: "not", Unit: ALU, Latency: aluLat, HasDst: true, NumSrc: 1},
	MOV:    {Name: "mov", Unit: ALU, Latency: aluLat, HasDst: true, NumSrc: 1},
	LDI:    {Name: "ldi", Unit: ALU, Latency: aluLat, HasDst: true, HasImm: true},
	ICMPEQ: {Name: "icmpeq", Unit: ALU, Latency: aluLat, HasDst: true, NumSrc: 2},
	ICMPNE: {Name: "icmpne", Unit: ALU, Latency: aluLat, HasDst: true, NumSrc: 2},
	ICMPLT: {Name: "icmplt", Unit: ALU, Latency: aluLat, HasDst: true, NumSrc: 2},
	ICMPLE: {Name: "icmple", Unit: ALU, Latency: aluLat, HasDst: true, NumSrc: 2},
	ICMPGT: {Name: "icmpgt", Unit: ALU, Latency: aluLat, HasDst: true, NumSrc: 2},
	ICMPGE: {Name: "icmpge", Unit: ALU, Latency: aluLat, HasDst: true, NumSrc: 2},

	FADDOP: {Name: "fadd", Unit: FADD, Latency: fLat, HasDst: true, NumSrc: 2},
	FSUBOP: {Name: "fsub", Unit: FADD, Latency: fLat, HasDst: true, NumSrc: 2},
	FNEG:   {Name: "fneg", Unit: FADD, Latency: fLat, HasDst: true, NumSrc: 1},
	FABS:   {Name: "fabs", Unit: FADD, Latency: fLat, HasDst: true, NumSrc: 1},
	FMIN:   {Name: "fmin", Unit: FADD, Latency: fLat, HasDst: true, NumSrc: 2},
	FMAX:   {Name: "fmax", Unit: FADD, Latency: fLat, HasDst: true, NumSrc: 2},
	CVTIF:  {Name: "cvtif", Unit: FADD, Latency: fLat, HasDst: true, NumSrc: 1},
	CVTFI:  {Name: "cvtfi", Unit: FADD, Latency: fLat, HasDst: true, NumSrc: 1},
	FCMPEQ: {Name: "fcmpeq", Unit: FADD, Latency: fLat, HasDst: true, NumSrc: 2},
	FCMPNE: {Name: "fcmpne", Unit: FADD, Latency: fLat, HasDst: true, NumSrc: 2},
	FCMPLT: {Name: "fcmplt", Unit: FADD, Latency: fLat, HasDst: true, NumSrc: 2},
	FCMPLE: {Name: "fcmple", Unit: FADD, Latency: fLat, HasDst: true, NumSrc: 2},
	FCMPGT: {Name: "fcmpgt", Unit: FADD, Latency: fLat, HasDst: true, NumSrc: 2},
	FCMPGE: {Name: "fcmpge", Unit: FADD, Latency: fLat, HasDst: true, NumSrc: 2},

	FMULOP: {Name: "fmul", Unit: FMUL, Latency: fLat, HasDst: true, NumSrc: 2},
	FDIV:   {Name: "fdiv", Unit: FMUL, Latency: fdivLat, Blocking: true, HasDst: true, NumSrc: 2},
	FSQRT:  {Name: "fsqrt", Unit: FMUL, Latency: sqrtLat, Blocking: true, HasDst: true, NumSrc: 1},

	LOAD:  {Name: "load", Unit: MEM, Latency: loadLat, HasDst: true, NumSrc: 1, HasImm: true},
	STORE: {Name: "store", Unit: MEM, Latency: 1, NumSrc: 2, HasImm: true},

	JMP:  {Name: "jmp", Unit: CTRL, Latency: 1, HasImm: true},
	BT:   {Name: "bt", Unit: CTRL, Latency: 1, NumSrc: 1, HasImm: true},
	BF:   {Name: "bf", Unit: CTRL, Latency: 1, NumSrc: 1, HasImm: true},
	CALL: {Name: "call", Unit: CTRL, Latency: 1, HasImm: true},
	RET:  {Name: "ret", Unit: CTRL, Latency: 1},
	HALT: {Name: "halt", Unit: CTRL, Latency: 1},

	RECVX: {Name: "recvx", Unit: IO, Latency: 1, HasDst: true},
	RECVY: {Name: "recvy", Unit: IO, Latency: 1, HasDst: true},
	SENDX: {Name: "sendx", Unit: IO, Latency: 1, NumSrc: 1},
	SENDY: {Name: "sendy", Unit: IO, Latency: 1, NumSrc: 1},
}

// Info returns the static description of op.
func Info(op Opcode) OpInfo {
	if int(op) < len(opInfos) {
		return opInfos[op]
	}
	return OpInfo{Name: "bad"}
}

// NumOpcodes returns the number of defined opcodes.
func NumOpcodes() int { return int(numOpcodes) }

// IsBranch reports whether op transfers control.
func IsBranch(op Opcode) bool {
	switch op {
	case JMP, BT, BF, CALL, RET, HALT:
		return true
	}
	return false
}

// Cell configuration constants.
const (
	// DataMemWords is the size of a cell's local data memory in words.
	DataMemWords = 32 * 1024
	// ProgMemWords is the size of a cell's program memory in instruction
	// words. Programs beyond this do not fit and must be rejected by the
	// linker.
	ProgMemWords = 16 * 1024
	// QueueDepth is the depth of the inter-cell X and Y queues.
	QueueDepth = 512
	// ReturnStackDepth is the depth of the sequencer's return stack.
	ReturnStackDepth = 64
)

// Instr is one operation in a unit slot of an instruction word: exactly
// the fields of one encoded W2OB slot, 8 bytes and no pointers. A branch
// target or data symbol is not part of the instruction: before linking it
// travels beside the scheduled words (codegen.PBlock.Syms, then the
// object's relocations), and the linker resolves it into Imm.
type Instr struct {
	Op  Opcode
	Dst Reg
	A   Reg
	B   Reg
	Imm int32
}

func (i Instr) String() string { return i.StringSym("") }

// StringSym renders i as String does, with @sym in place of the immediate
// when sym is not empty: how an operation reads before its symbol is
// resolved.
func (i Instr) StringSym(sym string) string {
	info := Info(i.Op)
	s := info.Name
	if info.HasDst {
		s += " " + i.Dst.String()
	}
	if info.NumSrc >= 1 {
		s += " " + i.A.String()
	}
	if info.NumSrc >= 2 {
		s += " " + i.B.String()
	}
	if info.HasImm {
		if sym != "" {
			s += " @" + sym
		} else {
			s += fmt.Sprintf(" #%d", i.Imm)
		}
	}
	return s
}

// Word is one wide instruction word: at most one operation per unit slot.
// Empty slots hold NOP.
type Word [NumUnits]Instr

// IsEmpty reports whether every slot of the word is a NOP.
func (w Word) IsEmpty() bool {
	for _, in := range w {
		if in.Op != NOP {
			return false
		}
	}
	return true
}

func (w Word) String() string {
	s := ""
	for u := Unit(0); u < NumUnits; u++ {
		if w[u].Op == NOP {
			continue
		}
		if s != "" {
			s += " ; "
		}
		s += u.String() + ":" + w[u].String()
	}
	if s == "" {
		return "nop"
	}
	return s
}
