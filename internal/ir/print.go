package ir

import (
	"fmt"
	"strings"
)

// String renders the function in a readable assembly-like syntax, mainly
// for debugging and golden tests.
func (f *Function) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "func %s(%d params, %d regs) {\n", f.Name, f.NumParams, f.NumRegs)
	for _, blk := range f.Blocks {
		fmt.Fprintf(&sb, "%s.%d:\n", blk.Name, blk.Index)
		for ii := range blk.Instrs {
			sb.WriteString("  ")
			sb.WriteString(formatInstr(&blk.Instrs[ii]))
			sb.WriteByte('\n')
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}

func formatInstr(in *Instr) string {
	r := func(x Reg) string {
		if x == NoReg {
			return "_"
		}
		return fmt.Sprintf("r%d", x)
	}
	switch in.Op {
	case OpConst:
		return fmt.Sprintf("%s = const %d", r(in.Dst), in.Imm)
	case OpMov, OpNeg, OpNot:
		return fmt.Sprintf("%s = %s %s", r(in.Dst), in.Op, r(in.A))
	case OpLoad:
		return fmt.Sprintf("%s = load %s+%d", r(in.Dst), r(in.A), in.Imm)
	case OpStore:
		return fmt.Sprintf("store %s+%d, %s", r(in.A), in.Imm, r(in.B))
	case OpAlloc:
		return fmt.Sprintf("%s = alloc %s", r(in.Dst), r(in.A))
	case OpGlobal:
		return fmt.Sprintf("%s = global %s", r(in.Dst), in.Sym)
	case OpCall:
		args := make([]string, len(in.Args))
		for i, a := range in.Args {
			args[i] = r(a)
		}
		return fmt.Sprintf("%s = call %s(%s)", r(in.Dst), in.Sym, strings.Join(args, ", "))
	case OpWork:
		return fmt.Sprintf("work %s", r(in.A))
	case OpJmp:
		return fmt.Sprintf("jmp b%d", in.Blk0)
	case OpBr:
		return fmt.Sprintf("br %s, b%d, b%d", r(in.A), in.Blk0, in.Blk1)
	case OpRet:
		if in.A == NoReg {
			return "ret"
		}
		return fmt.Sprintf("ret %s", r(in.A))
	case OpSwitch:
		var cases []string
		for _, c := range in.Cases {
			cases = append(cases, fmt.Sprintf("%d=>b%d", c.Value, c.Block))
		}
		return fmt.Sprintf("switch %s [%s] default b%d", r(in.A), strings.Join(cases, " "), in.Blk0)
	default:
		return fmt.Sprintf("%s = %s %s, %s", r(in.Dst), in.Op, r(in.A), r(in.B))
	}
}
