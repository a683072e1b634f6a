package trace

import (
	"bytes"
	"testing"

	"repro/internal/isa"
	"repro/internal/workload"
)

func sample(n int) []isa.TraceInst {
	prof, _ := workload.ProfileFor("parser")
	g := workload.MustNewGenerator(prof, 7)
	out := make([]isa.TraceInst, n)
	for i := range out {
		g.Next(&out[i])
	}
	return out
}

func TestRoundTrip(t *testing.T) {
	insts := sample(5000)
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range insts {
		if err := w.Write(&insts[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != 5000 {
		t.Fatalf("count = %d", w.Count())
	}

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 5000 {
		t.Fatalf("reader len = %d", r.Len())
	}
	var got isa.TraceInst
	for i := range insts {
		r.Next(&got)
		if got != insts[i] {
			t.Fatalf("record %d: %+v != %+v", i, got, insts[i])
		}
	}
	// Looping: after the last record the stream restarts.
	r.Next(&got)
	if got != insts[0] {
		t.Fatal("trace does not loop")
	}
}

func TestBranchTargetsReconstructed(t *testing.T) {
	insts := sample(20000)
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	for i := range insts {
		w.Write(&insts[i])
	}
	w.Flush()
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	for i, ti := range insts {
		if ti.Op == isa.OpBranch && ti.Taken {
			want := insts[(i+1)%len(insts)].PC
			if got := r.BranchTarget(ti.PC); got != want && found == 0 {
				// Targets for a pc are overwritten by later instances; only
				// the mapping's existence is guaranteed, pointing at one of
				// the pc's successors. Check it is a real successor.
				ok := false
				for j, tj := range insts {
					if tj.Op == isa.OpBranch && tj.Taken && tj.PC == ti.PC &&
						insts[(j+1)%len(insts)].PC == got {
						ok = true
						break
					}
				}
				if !ok {
					t.Fatalf("target %#x for pc %#x is not a successor", got, ti.PC)
				}
			}
			found++
		}
	}
	if found == 0 {
		t.Fatal("sample contained no taken branches")
	}
}

func TestRegions(t *testing.T) {
	insts := sample(10000)
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	for i := range insts {
		w.Write(&insts[i])
	}
	w.Flush()
	r, _ := NewReader(&buf)
	regions := r.Regions()
	if len(regions) != 2 || !regions[0].Code || regions[1].Code {
		t.Fatalf("regions: %+v", regions)
	}
	for _, ti := range insts {
		if ti.PC < regions[0].Base || ti.PC >= regions[0].Base+regions[0].Size {
			t.Fatal("pc outside code region")
		}
		if ti.Op.IsMem() &&
			(ti.Addr < regions[1].Base || ti.Addr >= regions[1].Base+regions[1].Size) {
			t.Fatal("addr outside data region")
		}
	}
}

func TestReaderRejectsGarbage(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("notatrace"))); err == nil {
		t.Fatal("garbage accepted")
	}
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.Flush()
	if _, err := NewReader(&buf); err == nil {
		t.Fatal("empty trace accepted")
	}
}

func TestReaderRejectsTruncated(t *testing.T) {
	insts := sample(10)
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	for i := range insts {
		w.Write(&insts[i])
	}
	w.Flush()
	raw := buf.Bytes()
	if _, err := NewReader(bytes.NewReader(raw[:len(raw)-5])); err == nil {
		t.Fatal("truncated trace accepted")
	}
}

func TestWriterRejectsInvalid(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	bad := isa.TraceInst{Op: isa.OpLoad, Dest: isa.RegNone, Addr: 8}
	if err := w.Write(&bad); err == nil {
		t.Fatal("invalid record accepted")
	}
}

// TestReaderLyingHeaderCount feeds headers whose record count far
// exceeds the records present. Preallocating from the count used to
// end the process with "fatal error: runtime: out of memory".
func TestReaderLyingHeaderCount(t *testing.T) {
	// "TLROBTR1" followed by a count of 2^34 records, and nothing else.
	hdr := []byte{'T', 'L', 'R', 'O', 'B', 'T', 'R', '1', 0, 0, 0, 0, 4, 0, 0, 0}
	if _, err := NewReader(bytes.NewReader(hdr)); err == nil {
		t.Fatal("a header with no records accepted")
	}

	insts := sample(3)
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	for i := range insts {
		w.Write(&insts[i])
	}
	w.Flush()
	raw := buf.Bytes()
	copy(raw[8:16], hdr[8:16])
	r, err := NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != len(insts) {
		t.Fatalf("read %d records, want %d", r.Len(), len(insts))
	}
}
