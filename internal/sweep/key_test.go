package sweep

import (
	"testing"
)

// TestParseKeyRoundTrip: every representable scenario (registry-style
// names, no whitespace) must survive Key -> ParseKey exactly — the
// persistent store trusts this inverse to rebuild scenarios from disk.
func TestParseKeyRoundTrip(t *testing.T) {
	scenarios := []Scenario{
		{},
		{Machine: "icx"},
		{Machine: "spr8480", Workload: "jacobi", Mode: Mode{Name: "nt", NTStores: true},
			Ranks: 72, Mesh: Mesh{X: 15360, Y: 15360}, Threads: 36, MaxRows: -1, Seed: 0x5eed},
		{Machine: "a64fx", Workload: "stream", Mode: Mode{Name: "nt-opt", NTStores: true, OptimizeLoops: true},
			Ranks: 1, Threads: 1, MaxRows: 8, Seed: ^uint64(0)},
		{Machine: "clx", Mode: Mode{Name: "pf-off", PFOff: true}, Seed: 1},
		{Machine: "icx-snc0", Workload: "riemann", Mode: Mode{Name: "speci2m-off", SpecI2MOff: true},
			Mesh: Mesh{X: 1, Y: 999999}},
	}
	for _, want := range scenarios {
		got, err := ParseKey(want.Key())
		if err != nil {
			t.Errorf("ParseKey(%q): %v", want.Key(), err)
			continue
		}
		if got != want {
			t.Errorf("ParseKey(Key()) = %+v, want %+v", got, want)
		}
		if got.ID() != want.ID() {
			t.Errorf("round trip changed ID: %s -> %s", want.ID(), got.ID())
		}
	}
}

// noncanonicalKeys spell a field's value another way than Key renders
// it; each parses to a scenario whose Key differs from the input.
var noncanonicalKeys = []string{
	"machine=icx workload= mode=nt nt=1 opt=false i2moff=false pfoff=false ranks=4 mesh=default threads=8 maxrows=8 seed=0x1",
	"machine=icx workload= mode=nt nt=true opt=f i2moff=false pfoff=false ranks=4 mesh=default threads=8 maxrows=8 seed=0x1",
	"machine=icx workload= mode=nt nt=true opt=false i2moff=false pfoff=FALSE ranks=4 mesh=default threads=8 maxrows=8 seed=0x1",
	"machine=icx workload= mode=nt nt=true opt=false i2moff=false pfoff=false ranks=+05 mesh=default threads=8 maxrows=8 seed=0x1",
	"machine=icx workload= mode=nt nt=true opt=false i2moff=false pfoff=false ranks=4 mesh=default threads=8 maxrows=-0 seed=0x1",
	"machine=icx workload= mode=nt nt=true opt=false i2moff=false pfoff=false ranks=4 mesh=default threads=00 maxrows=8 seed=0x1",
	"machine=icx workload= mode=nt nt=true opt=false i2moff=false pfoff=false ranks=4 mesh=default threads=8 maxrows=8 seed=0xAB",
	"machine=icx workload= mode=nt nt=true opt=false i2moff=false pfoff=false ranks=4 mesh=default threads=8 maxrows=8 seed=0x00ab",
	"machine=icx workload= mode=nt nt=true opt=false i2moff=false pfoff=false ranks=4 mesh=07x9 threads=8 maxrows=8 seed=0x1",
}

func TestParseKeyRejectsMalformed(t *testing.T) {
	nt, _ := ModeByName("nt")
	valid := Scenario{Machine: "icx", Mode: nt, Seed: 1}.Key()
	bad := []string{
		"",
		"machine=icx",
		valid + " extra=1",
		"machine=icx workload= mode=nt nt=maybe opt=false i2moff=false pfoff=false ranks=4 mesh=default threads=8 maxrows=8 seed=0x1",
		"machine=icx workload= mode=nt nt=true opt=false i2moff=false pfoff=false ranks=four mesh=default threads=8 maxrows=8 seed=0x1",
		"machine=icx workload= mode=nt nt=true opt=false i2moff=false pfoff=false ranks=4 mesh=0x0 threads=8 maxrows=8 seed=0x1",
		"machine=icx workload= mode=nt nt=true opt=false i2moff=false pfoff=false ranks=4 mesh=default threads=8 maxrows=8 seed=1",
		"machine=icx workload= mode=nt nt=true opt=false i2moff=false pfoff=false ranks=4 mesh=default threads=8 maxrows=8 seed=0xzz",
		"ranks=4 workload= mode=nt nt=true opt=false i2moff=false pfoff=false machine=icx mesh=default threads=8 maxrows=8 seed=0x1", // reordered fields
	}
	bad = append(bad, noncanonicalKeys...)
	for _, key := range bad {
		if _, err := ParseKey(key); err == nil {
			t.Errorf("ParseKey accepted malformed key %q", key)
		}
	}
}

// FuzzParseKey: arbitrary strings must never panic, and any key that
// parses must be canonical — the parsed scenario renders back to the
// same bytes — and reparse to the same scenario and ID.
func FuzzParseKey(f *testing.F) {
	f.Add(Scenario{Machine: "icx", Workload: "jacobi", Mode: Mode{Name: "nt", NTStores: true},
		Ranks: 4, Mesh: Mesh{X: 1536, Y: 1536}, Threads: 8, MaxRows: 8, Seed: 0x5eed}.Key())
	f.Add(Scenario{}.Key())
	f.Add("machine=icx workload= mode= nt=false opt=false i2moff=false pfoff=false ranks=0 mesh=default threads=0 maxrows=0 seed=0x0")
	f.Add("not a key")
	f.Add("machine= workload= mode= nt= opt= i2moff= pfoff= ranks= mesh= threads= maxrows= seed=")
	for _, key := range noncanonicalKeys {
		f.Add(key)
	}

	f.Fuzz(func(t *testing.T, key string) {
		s, err := ParseKey(key)
		if err != nil {
			return
		}
		if s.Key() != key {
			t.Fatalf("accepted key %q renders as %q", key, s.Key())
		}
		again, err := ParseKey(s.Key())
		if err != nil {
			t.Fatalf("canonical key of accepted scenario does not reparse: %q: %v", s.Key(), err)
		}
		if again != s {
			t.Fatalf("canonicalization not a fixed point: %+v vs %+v", s, again)
		}
		if again.ID() != s.ID() {
			t.Fatalf("canonicalization changed ID")
		}
	})
}
