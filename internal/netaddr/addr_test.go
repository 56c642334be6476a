package netaddr

import (
	"encoding/json"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMakeAddrOctets(t *testing.T) {
	a := MakeAddr(127, 1, 135, 14)
	o0, o1, o2, o3 := a.Octets()
	if o0 != 127 || o1 != 1 || o2 != 135 || o3 != 14 {
		t.Fatalf("Octets() = %d.%d.%d.%d, want 127.1.135.14", o0, o1, o2, o3)
	}
}

func TestAddrString(t *testing.T) {
	cases := []struct {
		addr Addr
		want string
	}{
		{0, "0.0.0.0"},
		{MakeAddr(127, 1, 135, 14), "127.1.135.14"},
		{MakeAddr(255, 255, 255, 255), "255.255.255.255"},
		{MakeAddr(10, 0, 0, 1), "10.0.0.1"},
	}
	for _, c := range cases {
		if got := c.addr.String(); got != c.want {
			t.Errorf("Addr(%d).String() = %q, want %q", uint32(c.addr), got, c.want)
		}
	}
}

func TestParseAddrValid(t *testing.T) {
	cases := map[string]Addr{
		"0.0.0.0":         0,
		"127.1.135.14":    MakeAddr(127, 1, 135, 14),
		"255.255.255.255": MakeAddr(255, 255, 255, 255),
		"192.0.2.1":       MakeAddr(192, 0, 2, 1),
	}
	for s, want := range cases {
		got, err := ParseAddr(s)
		if err != nil {
			t.Errorf("ParseAddr(%q): %v", s, err)
			continue
		}
		if got != want {
			t.Errorf("ParseAddr(%q) = %v, want %v", s, got, want)
		}
	}
}

func TestParseAddrInvalid(t *testing.T) {
	bad := []string{
		"", "1.2.3", "1.2.3.4.5", "256.1.1.1", "1.2.3.999",
		"a.b.c.d", "1..2.3", "01.2.3.4", "1.2.3.04", "-1.2.3.4",
		"1.2.3.4 ", " 1.2.3.4", "1.2.3.4/24",
	}
	for _, s := range bad {
		if _, err := ParseAddr(s); err == nil {
			t.Errorf("ParseAddr(%q) succeeded, want error", s)
		}
	}
}

func TestParseAddrRoundTrip(t *testing.T) {
	f := func(u uint32) bool {
		a := Addr(u)
		got, err := ParseAddr(a.String())
		return err == nil && got == a
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(20071024))}); err != nil {
		t.Fatal(err)
	}
}

func TestMustParseAddrPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParseAddr on invalid input did not panic")
		}
	}()
	MustParseAddr("not-an-address")
}

func TestAddrJSONRoundTrip(t *testing.T) {
	type payload struct {
		Host  Addr  `json:"host"`
		Block Block `json:"block"`
	}
	in := payload{
		Host:  MustParseAddr("127.1.135.14"),
		Block: MustParseBlock("10.1.0.0/16"),
	}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"host":"127.1.135.14","block":"10.1.0.0/16"}`
	if string(data) != want {
		t.Fatalf("marshal = %s, want %s", data, want)
	}
	var out payload
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip = %+v", out)
	}
	if err := json.Unmarshal([]byte(`{"host":"999.1.2.3"}`), &out); err == nil {
		t.Fatal("bad address accepted via JSON")
	}
	if err := json.Unmarshal([]byte(`{"block":"10.0.0.0/99"}`), &out); err == nil {
		t.Fatal("bad block accepted via JSON")
	}
}

func TestMask(t *testing.T) {
	a := MustParseAddr("127.1.135.14")
	cases := []struct {
		bits int
		want string
	}{
		{0, "0.0.0.0"},
		{8, "127.0.0.0"},
		{16, "127.1.0.0"},
		{24, "127.1.135.0"},
		{31, "127.1.135.14"},
		{32, "127.1.135.14"},
	}
	for _, c := range cases {
		if got := a.Mask(c.bits).String(); got != c.want {
			t.Errorf("Mask(%d) = %s, want %s", c.bits, got, c.want)
		}
	}
}

func TestMaskIdempotent(t *testing.T) {
	f := func(u uint32, nRaw uint8) bool {
		n := int(nRaw % 33)
		a := Addr(u)
		return a.Mask(n).Mask(n) == a.Mask(n)
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(20071024))}); err != nil {
		t.Fatal(err)
	}
}

func TestMaskMonotone(t *testing.T) {
	// Masking at a shorter prefix then a longer one equals masking at the
	// shorter prefix: C_m(C_n(a)) == C_m(a) for m <= n.
	f := func(u uint32, mRaw, nRaw uint8) bool {
		m, n := int(mRaw%33), int(nRaw%33)
		if m > n {
			m, n = n, m
		}
		a := Addr(u)
		return a.Mask(n).Mask(m) == a.Mask(m)
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(20071024))}); err != nil {
		t.Fatal(err)
	}
}

func TestMaskPanicsOutOfRange(t *testing.T) {
	for _, n := range []int{-1, 33, 64} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Mask(%d) did not panic", n)
				}
			}()
			Addr(0).Mask(n)
		}()
	}
}
