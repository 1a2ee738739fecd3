// Package isa defines the abstract PowerPC-flavoured instruction stream
// that flows from the workload models (application server, JVM, GC, DB)
// into the POWER4 processor model.
//
// The stream is deliberately abstract: an instruction carries its dynamic
// class, the effective address of the instruction itself (for the I-side
// cache/translation path), the effective data address for memory
// operations, and branch outcome/target information for the predictors.
// That is exactly the information a trace-driven microarchitecture
// simulator needs; register dataflow is folded into the CPI model's
// penalty accounting.
package isa

import "fmt"

// Class is the dynamic instruction class.
type Class uint8

// Instruction classes. The split mirrors what the POWER4 HPM can
// distinguish: fixed-point/other work, loads, stores, conditional branches,
// indirect (register) branches, the LARX/STCX reservation pair, and the
// SYNC family of ordering instructions.
const (
	ClassALU Class = iota // fixed point, FP, logic: everything non-memory, non-branch
	ClassLoad
	ClassStore
	ClassBranchCond     // conditional relative branch
	ClassBranchIndirect // branch to CTR/LR: virtual calls, returns, switches
	ClassLarx           // load-and-reserve (LWARX/LDARX)
	ClassStcx           // store-conditional (STWCX/STDCX)
	ClassSync           // SYNC/LWSYNC/ISYNC ordering
	numClasses
)

// NumClasses is the number of instruction classes.
const NumClasses = int(numClasses)

var classNames = [...]string{
	ClassALU:            "alu",
	ClassLoad:           "load",
	ClassStore:          "store",
	ClassBranchCond:     "bc",
	ClassBranchIndirect: "bctr",
	ClassLarx:           "larx",
	ClassStcx:           "stcx",
	ClassSync:           "sync",
}

// String returns a mnemonic-ish name for the class.
func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// IsMemory reports whether the class accesses the data cache.
func (c Class) IsMemory() bool {
	return c == ClassLoad || c == ClassStore || c == ClassLarx || c == ClassStcx
}

// IsLoad reports whether the class performs a data read.
func (c Class) IsLoad() bool { return c == ClassLoad || c == ClassLarx }

// IsStore reports whether the class performs a data write.
func (c Class) IsStore() bool { return c == ClassStore || c == ClassStcx }

// IsBranch reports whether the class redirects control flow.
func (c Class) IsBranch() bool { return c == ClassBranchCond || c == ClassBranchIndirect }

// Instr is one dynamic instruction.
type Instr struct {
	Class  Class
	PC     uint64 // effective address of the instruction (I-side)
	EA     uint64 // effective data address for memory classes
	Size   uint8  // access size in bytes for memory classes
	Taken  bool   // for ClassBranchCond: direction outcome
	Target uint64 // for taken branches: destination PC
	Return bool   // for ClassBranchIndirect: a function return (link-stack predicted)
	Kernel bool   // executed in privileged mode (OS / kernel time)
}

// Sink consumes a stream of instructions. The processor core implements
// Sink; trace recorders and tees do too.
type Sink interface {
	Consume(ins *Instr)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(ins *Instr)

// Consume calls f(ins).
func (f SinkFunc) Consume(ins *Instr) { f(ins) }

// CountingSink counts instructions by class; useful in tests and for
// verifying generated instruction mixes.
type CountingSink struct {
	Total  uint64
	ByKind [NumClasses]uint64
	Kernel uint64
}

// Consume implements Sink.
func (c *CountingSink) Consume(ins *Instr) {
	c.Total++
	c.ByKind[ins.Class]++
	if ins.Kernel {
		c.Kernel++
	}
}

// Loads returns the number of data-read instructions seen.
func (c *CountingSink) Loads() uint64 { return c.ByKind[ClassLoad] + c.ByKind[ClassLarx] }

// Stores returns the number of data-write instructions seen.
func (c *CountingSink) Stores() uint64 { return c.ByKind[ClassStore] + c.ByKind[ClassStcx] }

// Branches returns the number of branch instructions seen.
func (c *CountingSink) Branches() uint64 {
	return c.ByKind[ClassBranchCond] + c.ByKind[ClassBranchIndirect]
}

// Tee duplicates a stream to several sinks.
type Tee []Sink

// Consume forwards ins to every sink.
func (t Tee) Consume(ins *Instr) {
	for _, s := range t {
		s.Consume(ins)
	}
}
