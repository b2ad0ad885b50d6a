package build_test

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/build"
	"repro/internal/isa"
	"repro/internal/obj"
	"repro/internal/proc"
)

// built is an assembled test program and the addresses of its globals.
type built struct {
	Binary *obj.Binary
	Syms   map[string]uint64
}

func assemble(t *testing.T, p *build.ProgramBuilder) built {
	t.Helper()
	prog, err := p.Program()
	if err != nil {
		t.Fatal(err)
	}
	bin, err := asm.Assemble(prog, asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return built{bin, asm.DataSymbols(prog, asm.Options{})}
}

// ran is a built program run to its halt in a fresh process.
type ran struct {
	built
	p *proc.Process
}

func run(t *testing.T, r built) ran {
	t.Helper()
	p, err := proc.Load(r.Binary, proc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p.RunUntilHalt(0)
	if err := p.Fault(); err != nil {
		t.Fatalf("%s faulted: %v", r.Binary.Name, err)
	}
	return ran{r, p}
}

// mem reads the word at the named global.
func (r ran) mem(t *testing.T, sym string) uint64 {
	t.Helper()
	addr, ok := r.Syms[sym]
	if !ok {
		t.Fatalf("unknown data symbol %q in %s", sym, r.Binary.Name)
	}
	return r.p.Mem.ReadWord(addr)
}

func TestStructuredControlFlow(t *testing.T) {
	p := build.NewProgram("cf")
	p.Global("out", 8)
	p.Global("flags", 8)

	m := p.Func("main")
	m.Prologue(16)
	// while: sum 0..9 = 45
	m.MovI(isa.R7, 0)
	m.MovI(isa.R8, 0)
	m.While(func() { m.CmpI(isa.R7, 10) }, isa.LT, func() {
		m.Add(isa.R8, isa.R8, isa.R7)
		m.AddI(isa.R7, isa.R7, 1)
	})
	// if/else both directions: +100 (then), then +1000 (else)
	m.CmpI(isa.R8, 45)
	m.If(isa.EQ, func() { m.AddI(isa.R8, isa.R8, 100) },
		func() { m.AddI(isa.R8, isa.R8, 500) })
	m.CmpI(isa.R8, 0)
	m.If(isa.LT, func() { m.AddI(isa.R8, isa.R8, 7777) },
		func() { m.AddI(isa.R8, isa.R8, 1000) })
	// if without else, not taken
	m.CmpI(isa.R8, 0)
	m.If(isa.EQ, func() { m.MovI(isa.R8, 9) }, nil)
	m.LoadGlobalAddr(isa.R3, "out")
	m.St(isa.R3, 0, isa.R8)
	m.Halt()
	p.SetEntry("main")

	r := assemble(t, p)
	if got := run(t, r).mem(t, "out"); got != 45+100+1000 {
		t.Errorf("out = %d, want %d", got, 45+100+1000)
	}
}

// switchProgram stores 11*idx (case) or 999 (default) to "out".
func switchProgram(name string, jt bool, idx int64) *build.ProgramBuilder {
	p := build.NewProgram(name)
	p.SetNoJumpTables(!jt)
	p.Global("out", 8)
	m := p.Func("main")
	m.Prologue(16)
	m.MovI(isa.R1, idx)
	cases := make([]func(), 4)
	for i := range cases {
		i := i
		cases[i] = func() { m.MovI(isa.R2, int64(11*i)) }
	}
	m.Switch(isa.R1, cases, func() { m.MovI(isa.R2, 999) })
	m.LoadGlobalAddr(isa.R3, "out")
	m.St(isa.R3, 0, isa.R2)
	m.Halt()
	p.SetEntry("main")
	return p
}

func TestSwitchBothLowerings(t *testing.T) {
	for _, jt := range []bool{true, false} {
		name := "chain"
		if jt {
			name = "jtbl"
		}
		t.Run(name, func(t *testing.T) {
			// In-range cases, the default, and the negative-index guard.
			for _, c := range []struct{ idx, want int64 }{
				{0, 0}, {2, 22}, {3, 33}, {9, 999}, {-1, 999},
			} {
				p := switchProgram("sw", jt, c.idx)
				r := assemble(t, p)
				if jt && len(r.Binary.JumpTables) != 1 {
					t.Fatalf("jump-table mode emitted %d tables, want 1", len(r.Binary.JumpTables))
				}
				if !jt && len(r.Binary.JumpTables) != 0 {
					t.Fatalf("no-jump-table mode emitted %d tables, want 0", len(r.Binary.JumpTables))
				}
				if !jt != r.Binary.NoJumpTables {
					t.Fatal("binary jump-table flag does not match builder policy")
				}
				if got := run(t, r).mem(t, "out"); got != uint64(c.want) {
					t.Errorf("idx %d: out = %d, want %d", c.idx, got, c.want)
				}
			}
		})
	}
}

func TestBuilderErrors(t *testing.T) {
	cases := []struct {
		name string
		prog func() *build.ProgramBuilder
		want string
	}{
		{"duplicate function", func() *build.ProgramBuilder {
			p := build.NewProgram("e")
			f := p.Func("f")
			f.Halt()
			g := p.Func("f")
			g.Halt()
			p.SetEntry("f")
			return p
		}, "duplicate function"},
		{"duplicate global", func() *build.ProgramBuilder {
			p := build.NewProgram("e")
			p.Global("g", 8)
			p.Global("g", 8)
			f := p.Func("main")
			f.Halt()
			p.SetEntry("main")
			return p
		}, "duplicate global"},
		{"no entry", func() *build.ProgramBuilder {
			p := build.NewProgram("e")
			f := p.Func("main")
			f.Halt()
			return p
		}, "no entry"},
		{"undefined entry", func() *build.ProgramBuilder {
			p := build.NewProgram("e")
			f := p.Func("main")
			f.Halt()
			p.SetEntry("other")
			return p
		}, "not defined"},
		{"falls off the end", func() *build.ProgramBuilder {
			p := build.NewProgram("e")
			f := p.Func("main")
			f.MovI(isa.R0, 1)
			p.SetEntry("main")
			return p
		}, "falls off the end"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := c.prog().Program()
			if err == nil {
				t.Fatal("expected error, got none")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

func TestBuildDeterministic(t *testing.T) {
	img := func() []byte {
		r := assemble(t, switchProgram("det", true, 1))
		var buf bytes.Buffer
		for _, s := range r.Binary.Sections {
			buf.WriteString(s.Name)
			buf.Write(s.Data)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(img(), img()) {
		t.Fatal("two builds of the same program differ")
	}
}

func TestVTableAndSyms(t *testing.T) {
	p := build.NewProgram("vt")
	p.SetNoJumpTables(true)
	p.Global("out", 8)
	a := p.Func("fa")
	a.MovI(isa.R0, 1111)
	a.Ret()
	b := p.Func("fb")
	b.MovI(isa.R0, 2222)
	b.Ret()
	p.VTable("vt0", "fa", "fb")
	p.Global("objp", 8)
	m := p.Func("main")
	m.Prologue(16)
	m.LoadGlobalAddr(isa.R6, "vt0")
	m.LoadGlobalAddr(isa.R7, "objp")
	m.St(isa.R7, 0, isa.R6)
	m.VCall(isa.R7, isa.R5, 1)
	m.LoadGlobalAddr(isa.R3, "out")
	m.St(isa.R3, 0, isa.R0)
	m.Halt()
	p.SetEntry("main")

	r := assemble(t, p)
	if r.Syms["vt0"] == 0 || r.Syms["out"] == 0 || r.Syms["nosuch"] != 0 {
		t.Fatalf("symbol table wrong: vt0=%#x out=%#x", r.Syms["vt0"], r.Syms["out"])
	}
	var vt *obj.VTable
	for _, v := range r.Binary.VTables {
		if v.Name == "vt0" {
			vt = v
		}
	}
	if vt == nil || len(vt.Slots) != 2 {
		t.Fatal("v-table missing from binary")
	}
	if got := run(t, r).mem(t, "out"); got != 2222 {
		t.Errorf("virtual call through slot 1 returned %d, want 2222", got)
	}
}
