package rs

import (
	"errors"
	"reflect"
	"testing"

	"codedsm/internal/field"
	"codedsm/internal/poly"
)

func TestDecodeManyMatchesSequential(t *testing.T) {
	gold := field.NewGoldilocks()
	ring := poly.NewRing[uint64](gold)
	pts, err := gold.Elements(32)
	if err != nil {
		t.Fatal(err)
	}
	code, err := NewCode(ring, pts, 8)
	if err != nil {
		t.Fatal(err)
	}
	const words = 12
	batch := make([][]uint64, words)
	want := make([]*DecodeResult[uint64], words)
	for w := 0; w < words; w++ {
		msg := make(poly.Poly[uint64], 8)
		for i := range msg {
			msg[i] = uint64(w*10 + i + 1)
		}
		word, err := code.Encode(msg)
		if err != nil {
			t.Fatal(err)
		}
		for e := 0; e <= w%code.MaxErrors(); e++ {
			word[(e*5+w)%len(word)] = gold.Add(word[(e*5+w)%len(word)], 1)
		}
		batch[w] = word
		if want[w], err = code.Decode(word); err != nil {
			t.Fatal(err)
		}
	}
	got, err := code.DecodeMany(batch)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("DecodeMany diverged from one Decode per word")
	}
}

func TestDecodeManyReportsLowestFailingWord(t *testing.T) {
	gold := field.NewGoldilocks()
	ring := poly.NewRing[uint64](gold)
	pts, err := gold.Elements(8)
	if err != nil {
		t.Fatal(err)
	}
	code, err := NewCode(ring, pts, 6) // radius (8-6)/2 = 1
	if err != nil {
		t.Fatal(err)
	}
	msg := poly.Poly[uint64]{1, 2, 3, 4, 5, 6}
	clean, err := code.Encode(msg)
	if err != nil {
		t.Fatal(err)
	}
	// Two corrupted coordinates exceed the radius-1 code's reach (a generic
	// 2-error vector interpolates to a degree-7 polynomial, not a codeword).
	ruined := append([]uint64(nil), clean...)
	ruined[0] = gold.Add(ruined[0], 11)
	ruined[3] = gold.Add(ruined[3], 29)
	batch := [][]uint64{clean, ruined, ruined}
	_, err = code.DecodeMany(batch)
	if err == nil {
		t.Fatal("undecodable words must fail")
	}
	if !errors.Is(err, ErrTooManyErrors) {
		t.Fatalf("want ErrTooManyErrors, got %v", err)
	}
	var werr *WordError
	if !errors.As(err, &werr) || werr.Word != 1 {
		t.Fatalf("want lowest failing word index 1, got %v", err)
	}
}
