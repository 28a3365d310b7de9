package trace

import (
	"bytes"
	"io"
	"testing"
)

// FuzzDecoder feeds arbitrary bytes to the trace decoder: it must reject
// or cleanly EOF on everything without panicking, and every instruction
// it does produce must be structurally valid.
func FuzzDecoder(f *testing.F) {
	// Seed with a real trace prefix and some corruptions of it.
	var buf bytes.Buffer
	enc, err := NewEncoder(&buf, 3)
	if err != nil {
		f.Fatal(err)
	}
	for _, in := range sampleInsts(50, 1) {
		if err := enc.Encode(in); err != nil {
			f.Fatal(err)
		}
	}
	enc.Flush()
	raw := buf.Bytes()
	f.Add(raw)
	f.Add(raw[:len(raw)/2])
	f.Add([]byte(magic))
	f.Add([]byte{})
	mut := append([]byte(nil), raw...)
	for i := len(magic) + 2; i < len(mut); i += 7 {
		mut[i] ^= 0xA5
	}
	f.Add(mut)

	f.Fuzz(func(t *testing.T, data []byte) {
		dec, err := NewDecoder(bytes.NewReader(data))
		if err != nil {
			return // rejected header: fine
		}
		for i := 0; i < 10000; i++ {
			in, err := dec.Decode()
			if err != nil {
				if err != io.EOF && err == nil {
					t.Fatal("nil error with failure")
				}
				return
			}
			if !in.Class.Valid() {
				t.Fatalf("decoder produced invalid class %d", in.Class)
			}
		}
	})
}

// FuzzRoundTrip checks that any instruction the decoder accepts re-encodes
// and re-decodes identically (idempotent normalization).
func FuzzRoundTrip(f *testing.F) {
	f.Add(int64(1), uint8(10))
	f.Add(int64(42), uint8(100))
	f.Fuzz(func(t *testing.T, seed int64, nRaw uint8) {
		n := int(nRaw)%100 + 1
		insts := sampleInsts(n, seed)

		var buf bytes.Buffer
		enc, err := NewEncoder(&buf, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, in := range insts {
			if err := enc.Encode(in); err != nil {
				t.Fatal(err)
			}
		}
		enc.Flush()

		dec, err := NewDecoder(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		var decoded []struct{ a, b uint64 }
		var firstPass []byte
		{
			var buf2 bytes.Buffer
			enc2, _ := NewEncoder(&buf2, 0)
			for {
				in, err := dec.Decode()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				decoded = append(decoded, struct{ a, b uint64 }{in.PC, in.EA})
				if err := enc2.Encode(in); err != nil {
					t.Fatal(err)
				}
			}
			enc2.Flush()
			firstPass = buf2.Bytes()
		}
		// Second pass must be byte-identical (stable normalization).
		dec2, err := NewDecoder(bytes.NewReader(firstPass))
		if err != nil {
			t.Fatal(err)
		}
		var buf3 bytes.Buffer
		enc3, _ := NewEncoder(&buf3, 0)
		i := 0
		for {
			in, err := dec2.Decode()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if in.PC != decoded[i].a || in.EA != decoded[i].b {
				t.Fatalf("re-decode diverged at %d", i)
			}
			i++
			if err := enc3.Encode(in); err != nil {
				t.Fatal(err)
			}
		}
		enc3.Flush()
		if !bytes.Equal(firstPass, buf3.Bytes()) {
			t.Fatal("re-encoding is not stable")
		}
	})
}
