package seqio

import (
	"bytes"
	"errors"
	"math/rand/v2"
	"strings"
	"testing"
	"testing/quick"
)

func TestCode2Bit(t *testing.T) {
	for i, b := range Alphabet {
		code, err := Code2Bit(b)
		if err != nil || int(code) != i {
			t.Errorf("Code2Bit(%c) = %d, %v", b, code, err)
		}
		if Base2Bit(code) != b {
			t.Errorf("Base2Bit(%d) = %c want %c", code, Base2Bit(code), b)
		}
	}
	for _, b := range []byte("acgt") {
		if _, err := Code2Bit(b); !errors.Is(err, ErrUnsupportedBase) {
			t.Errorf("Code2Bit(%c) = %v, want ErrUnsupportedBase", b, err)
		}
	}
	for _, bad := range []byte{'N', 'n', 'U', ' ', 0} {
		if _, err := Code2Bit(bad); err == nil {
			t.Errorf("Code2Bit(%q) accepted", bad)
		}
	}
}

func TestPackUnpackWord(t *testing.T) {
	seq := []byte("ACGTACGTACGTACGT")
	w, err := PackWord(seq)
	if err != nil {
		t.Fatal(err)
	}
	if got := UnpackWord(w, 16); !bytes.Equal(got, seq) {
		t.Fatalf("round trip: %s", got)
	}
	// Partial word.
	w, err = PackWord([]byte("TG"))
	if err != nil {
		t.Fatal(err)
	}
	if got := UnpackWord(w, 2); !bytes.Equal(got, []byte("TG")) {
		t.Fatalf("partial round trip: %s", got)
	}
	if _, err := PackWord(bytes.Repeat([]byte("A"), 17)); err == nil {
		t.Error("PackWord accepted 17 bases")
	}
	if _, err := PackWord([]byte("AN")); err == nil {
		t.Error("PackWord accepted N")
	}
}

func TestPackSequenceRoundTripProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 1))
		n := r.IntN(500)
		seq := make([]byte, n)
		for i := range seq {
			seq[i] = Alphabet[r.IntN(4)]
		}
		words, err := PackSequence(seq)
		if err != nil {
			return false
		}
		if len(words) != (n+15)/16 {
			return false
		}
		return bytes.Equal(UnpackSequence(words, n), seq)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRoundReadLen(t *testing.T) {
	cases := map[int]int{0: 16, 1: 16, 16: 16, 17: 32, 9010: 9024, 10000: 10000}
	for in, want := range cases {
		if got := RoundReadLen(in); got != want {
			t.Errorf("RoundReadLen(%d)=%d want %d", in, got, want)
		}
	}
}

func TestImageRoundTrip(t *testing.T) {
	set := &InputSet{Pairs: []Pair{
		{ID: 7, A: []byte("ACGT"), B: []byte("ACGTT")},
		{ID: 8, A: []byte("GGGG"), B: []byte("G")},
		{ID: 900000, A: bytes.Repeat([]byte("ACGT"), 25), B: bytes.Repeat([]byte("TGCA"), 24)},
	}}
	img, err := set.BuildImage()
	if err != nil {
		t.Fatal(err)
	}
	ml := set.EffectiveMaxReadLen()
	if ml != 112 {
		t.Fatalf("EffectiveMaxReadLen=%d want 112", ml)
	}
	if len(img) != set.ImageBytes() {
		t.Fatalf("image %dB, ImageBytes says %d", len(img), set.ImageBytes())
	}
	back, err := ParseImage(img, ml, len(set.Pairs))
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range set.Pairs {
		q := back.Pairs[i]
		if q.ID != p.ID || !bytes.Equal(q.A, p.A) || !bytes.Equal(q.B, p.B) {
			t.Errorf("pair %d: got %+v want %+v", i, q, p)
		}
	}
}

func TestImageSectionLayout(t *testing.T) {
	// One pair, MAX_READ_LEN 16: header + 1 section per sequence.
	set := &InputSet{Pairs: []Pair{{ID: 3, A: []byte("AC"), B: []byte("GT")}}, MaxReadLen: 16}
	img, err := set.BuildImage()
	if err != nil {
		t.Fatal(err)
	}
	if len(img) != 3*SectionBytes {
		t.Fatalf("image %dB want %d", len(img), 3*SectionBytes)
	}
	if img[0] != 3 || img[4] != 2 || img[8] != 2 {
		t.Fatalf("header bytes wrong: % x", img[:16])
	}
	if img[16] != 'A' || img[17] != 'C' || img[18] != DummyBase {
		t.Fatalf("sequence a section wrong: % x", img[16:32])
	}
	if img[32] != 'G' || img[33] != 'T' {
		t.Fatalf("sequence b section wrong: % x", img[32:48])
	}
}

func TestImageOverLengthPreservesDeclaredLength(t *testing.T) {
	long := bytes.Repeat([]byte("A"), 40)
	set := &InputSet{Pairs: []Pair{{ID: 1, A: long, B: []byte("ACGT")}}, MaxReadLen: 16}
	img, err := set.BuildImage()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseImage(img, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Pairs[0].A) != 40 {
		t.Fatalf("declared length lost: %d", len(back.Pairs[0].A))
	}
}

func TestParseImageErrors(t *testing.T) {
	if _, err := ParseImage(make([]byte, 10), 16, 1); err == nil {
		t.Error("short image accepted")
	}
	if _, err := ParseImage(make([]byte, 160), 15, 1); err == nil {
		t.Error("unaligned MAX_READ_LEN accepted")
	}
}

func TestPairsTextRoundTrip(t *testing.T) {
	set := &InputSet{Pairs: []Pair{
		{ID: 0, A: []byte("ACGT"), B: []byte("AGT")},
		{ID: 12, A: []byte("T"), B: []byte("T")},
	}}
	var buf bytes.Buffer
	if err := WritePairs(&buf, set); err != nil {
		t.Fatal(err)
	}
	back, err := ReadPairs(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Pairs) != 2 {
		t.Fatalf("got %d pairs", len(back.Pairs))
	}
	for i := range set.Pairs {
		if back.Pairs[i].ID != set.Pairs[i].ID ||
			!bytes.Equal(back.Pairs[i].A, set.Pairs[i].A) ||
			!bytes.Equal(back.Pairs[i].B, set.Pairs[i].B) {
			t.Errorf("pair %d mismatch", i)
		}
	}
	// Comments and blank lines are skipped; malformed lines rejected.
	if _, err := ReadPairs(bytes.NewBufferString("# comment\n\n1\tACGT\tAC\n")); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadPairs(bytes.NewBufferString("1,ACGT,AC\n")); err == nil {
		t.Error("malformed line accepted")
	}
}

func TestPairSections(t *testing.T) {
	if got := PairSections(10000); got != 1+2*625 {
		t.Fatalf("PairSections(10000)=%d", got)
	}
	if got := PairSections(16); got != 3 {
		t.Fatalf("PairSections(16)=%d", got)
	}
}

// TestAlphabetExhaustive walks all 256 byte values: Code2Bit accepts exactly
// ACGT with codes 0-3, every other byte (acgt too) is an error wrapping
// ErrUnsupportedBase, and ValidateSequence and PackWord agree with it —
// ValidateSequence naming the first bad position.
func TestAlphabetExhaustive(t *testing.T) {
	want := map[byte]uint8{'A': 0, 'C': 1, 'G': 2, 'T': 3}
	for v := 0; v < 256; v++ {
		b := byte(v)
		code, err := Code2Bit(b)
		seq := []byte{'A', 'C', b, 'G', b}
		verr := ValidateSequence(seq)
		_, perr := PackWord(seq)
		if wc, ok := want[b]; ok {
			if err != nil || code != wc {
				t.Errorf("Code2Bit(%q) = %d, %v; want %d", b, code, err, wc)
			}
			if verr != nil || perr != nil {
				t.Errorf("%q: ValidateSequence = %v, PackWord = %v; want both nil", b, verr, perr)
			}
			continue
		}
		if !errors.Is(err, ErrUnsupportedBase) {
			t.Errorf("Code2Bit(%q) = %d, %v; want ErrUnsupportedBase", b, code, err)
		}
		if !errors.Is(verr, ErrUnsupportedBase) || !strings.Contains(verr.Error(), "position 2:") {
			t.Errorf("ValidateSequence(%q) = %v; want ErrUnsupportedBase at position 2", seq, verr)
		}
		if !errors.Is(perr, ErrUnsupportedBase) {
			t.Errorf("PackWord(%q) = %v; want ErrUnsupportedBase", seq, perr)
		}
	}
	if err := ValidateSequence(nil); err != nil {
		t.Errorf("ValidateSequence(nil) = %v", err)
	}
}
