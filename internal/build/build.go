// Package build is the program-construction DSL the workloads and tests
// use: a thin structured-programming layer (functions, labels, if/while/
// switch, calls, v-tables) over the asm package's block-level IR. A
// ProgramBuilder accumulates functions, globals and v-tables; Program()
// lowers the structured bodies into asm basic blocks with explicit
// fall-throughs, and Assemble() links the result into an obj.Binary with
// the compiler-default (source-order) layout that every profile-guided
// layout is compared against.
//
// The builder deliberately mirrors what -O2 compiler output looks like on
// the synthetic ISA: every structured construct lowers to the obvious
// branch shape (conditional branch over the then-block, loop header with
// a guarding exit branch, bounds-checked jump table or compare chain for
// switches), so the bolt package has realistic control flow to rediscover
// and reorder.
package build

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/obj"
)

// ProgramBuilder accumulates a whole program. Errors encountered while
// building (duplicate functions, jump tables in a no-jump-table program)
// are recorded and reported by Program().
type ProgramBuilder struct {
	name    string
	entry   string
	noJT    bool
	funcs   []*FuncBuilder
	globals []asm.Global
	vtables []asm.VTable
	gseen   map[string]bool
	fseen   map[string]bool
	err     error
}

// NewProgram starts an empty program.
func NewProgram(name string) *ProgramBuilder {
	return &ProgramBuilder{
		name:  name,
		gseen: make(map[string]bool),
		fseen: make(map[string]bool),
	}
}

// failf records the first build error.
func (p *ProgramBuilder) failf(format string, args ...any) {
	if p.err == nil {
		p.err = fmt.Errorf("build: "+format, args...)
	}
}

// Func starts a new function body. Instructions appended to the returned
// FuncBuilder become the function's entry block onward.
func (p *ProgramBuilder) Func(name string) *FuncBuilder {
	if p.fseen[name] {
		p.failf("duplicate function %q", name)
	}
	p.fseen[name] = true
	f := &FuncBuilder{p: p, name: name}
	f.cur = &bblock{label: "entry"}
	p.funcs = append(p.funcs, f)
	return f
}

// Global declares a named .data chunk and returns its name (convenient
// for threading the symbol through emit helpers).
func (p *ProgramBuilder) Global(name string, size uint64, init ...[]byte) string {
	if p.gseen[name] {
		p.failf("duplicate global %q", name)
	}
	p.gseen[name] = true
	g := asm.Global{Name: name, Size: size}
	if len(init) > 0 {
		g.Init = init[0]
	}
	p.globals = append(p.globals, g)
	return name
}

// VTable declares a v-table whose slots are the named functions, in
// order, and returns its name.
func (p *ProgramBuilder) VTable(name string, slots ...string) string {
	p.vtables = append(p.vtables, asm.VTable{Name: name, Slots: slots})
	return name
}

// SetEntry names the entry function.
func (p *ProgramBuilder) SetEntry(name string) { p.entry = name }

// SetNoJumpTables toggles the -fno-jump-tables analog (§IV-D): when set,
// Switch lowers to a compare chain instead of a JTBL, and the assembled
// binary is marked jump-table-free so the OCOLOS controller accepts it.
func (p *ProgramBuilder) SetNoJumpTables(v bool) { p.noJT = v }

// Program lowers every function into the asm IR. It may be called more
// than once; the builder is not consumed.
func (p *ProgramBuilder) Program() (*asm.Program, error) {
	if p.err != nil {
		return nil, p.err
	}
	if p.entry == "" {
		return nil, fmt.Errorf("build: program %s has no entry (call SetEntry)", p.name)
	}
	if !p.fseen[p.entry] {
		return nil, fmt.Errorf("build: entry function %q not defined", p.entry)
	}
	prog := &asm.Program{
		Name:         p.name,
		Entry:        p.entry,
		NoJumpTables: p.noJT,
	}
	for i := range p.globals {
		prog.Globals = append(prog.Globals, &p.globals[i])
	}
	for i := range p.vtables {
		prog.VTables = append(prog.VTables, &p.vtables[i])
	}
	for _, f := range p.funcs {
		fn, err := f.finish()
		if err != nil {
			return nil, err
		}
		prog.Funcs = append(prog.Funcs, fn)
	}
	return prog, nil
}

// Assemble lowers and links the program with the compiler-default layout.
func (p *ProgramBuilder) Assemble(opts asm.Options) (*obj.Binary, error) {
	prog, err := p.Program()
	if err != nil {
		return nil, err
	}
	return asm.Assemble(prog, opts)
}
