package obj

import (
	"bytes"
	"compress/gzip"
	"encoding/gob"
	"fmt"
	"io"
	"os"
)

// magic identifies serialized binaries on disk.
const magic = "OCOLOSGO1\n"

// Encode serializes the binary to w (gob, gzip-compressed, with a magic
// header). The on-disk form is what cmd/bolt and cmd/ocolos-run exchange.
func (b *Binary) Encode(w io.Writer) error {
	if _, err := io.WriteString(w, magic); err != nil {
		return err
	}
	zw := gzip.NewWriter(w)
	if err := gob.NewEncoder(zw).Encode(b); err != nil {
		return fmt.Errorf("obj: encode %s: %w", b.Name, err)
	}
	return zw.Close()
}

// DecodeBinary reads a binary previously written by Encode.
func DecodeBinary(r io.Reader) (*Binary, error) {
	hdr := make([]byte, len(magic))
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("obj: reading header: %w", err)
	}
	if !bytes.Equal(hdr, []byte(magic)) {
		return nil, fmt.Errorf("obj: bad magic %q", hdr)
	}
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("obj: gzip: %w", err)
	}
	defer zr.Close()
	var b Binary
	if err := gob.NewDecoder(zr).Decode(&b); err != nil {
		return nil, fmt.Errorf("obj: decode: %w", err)
	}
	b.SortFuncs()
	return &b, nil
}

// WriteFile serializes the binary to path.
func (b *Binary) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := b.Encode(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadFile loads a binary from path.
func ReadFile(path string) (*Binary, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return DecodeBinary(f)
}

// Clone returns a deep copy of the binary. Optimizers use it so the input
// binary is never mutated.
func (b *Binary) Clone() *Binary {
	nb := &Binary{
		Name:         b.Name,
		Entry:        b.Entry,
		Bolted:       b.Bolted,
		NoJumpTables: b.NoJumpTables,
	}
	for _, s := range b.Sections {
		data := make([]byte, len(s.Data))
		copy(data, s.Data)
		nb.Sections = append(nb.Sections, &Section{Name: s.Name, Addr: s.Addr, Data: data, Zero: s.Zero})
	}
	for _, f := range b.Funcs {
		nf := *f
		nf.Blocks = append([]BlockSpan(nil), f.Blocks...)
		nb.Funcs = append(nb.Funcs, &nf)
	}
	for _, vt := range b.VTables {
		nvt := *vt
		nvt.Slots = append([]uint64(nil), vt.Slots...)
		nb.VTables = append(nb.VTables, &nvt)
	}
	for _, jt := range b.JumpTables {
		njt := *jt
		njt.Targets = append([]uint64(nil), jt.Targets...)
		nb.JumpTables = append(nb.JumpTables, &njt)
	}
	nb.OrgRanges = append([]OrgRange(nil), b.OrgRanges...)
	if b.AddrMap != nil {
		nb.AddrMap = make(map[uint64]uint64, len(b.AddrMap))
		for k, v := range b.AddrMap {
			nb.AddrMap[k] = v
		}
	}
	if b.OSRMap != nil {
		nb.OSRMap = make(map[uint64][]OSRPoint, len(b.OSRMap))
		for k, v := range b.OSRMap {
			nb.OSRMap[k] = append([]OSRPoint(nil), v...)
		}
	}
	nb.SortFuncs()
	return nb
}
