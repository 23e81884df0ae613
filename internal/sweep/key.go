package sweep

import (
	"fmt"
	"strconv"
	"strings"
)

// keyFields is the exact field sequence Scenario.Key emits. ParseKey
// rejects any deviation, so a key string is either canonical or an
// error — there is no lenient middle ground for the store's integrity
// check to miss.
var keyFields = []string{
	"machine", "workload", "mode", "nt", "opt", "i2moff", "pfoff",
	"ranks", "mesh", "threads", "maxrows", "seed",
}

// ParseKey inverts Scenario.Key: it parses the canonical configuration
// string back into a Scenario. The persistent result store uses it to
// rebuild scenarios from stored records and to reject records whose key
// no longer hashes to their claimed ID (bit rot, hand edits, torn
// writes).
//
// Keys are canonical only for machine/workload/mode names without
// whitespace or '=' — which registry names guarantee. ParseKey never
// panics; malformed input returns an error.
func ParseKey(key string) (Scenario, error) {
	vals := strings.Split(key, " ")
	if len(vals) != len(keyFields) {
		return Scenario{}, fmt.Errorf("sweep: key has %d fields, want %d", len(vals), len(keyFields))
	}
	for i, tok := range vals {
		name, val, ok := strings.Cut(tok, "=")
		if !ok || name != keyFields[i] {
			return Scenario{}, fmt.Errorf("sweep: key field %d is %q, want %q=...", i, tok, keyFields[i])
		}
		vals[i] = val
	}
	// Parse leniently, then accept only a key that the parsed scenario
	// renders back to byte for byte. A value that does not parse, or
	// another spelling of one that does (nt=1, ranks=+05, seed=0xAB,
	// mesh=07x9), renders differently, so one scenario has one key and
	// one ID.
	s := Scenario{Machine: vals[0], Workload: vals[1], Mode: Mode{Name: vals[2],
		NTStores: vals[3] == "true", OptimizeLoops: vals[4] == "true",
		SpecI2MOff: vals[5] == "true", PFOff: vals[6] == "true"}}
	s.Ranks, _ = strconv.Atoi(vals[7])
	if vals[8] != "default" {
		s.Mesh, _ = ParseMesh(vals[8])
	}
	s.Threads, _ = strconv.Atoi(vals[9])
	s.MaxRows, _ = strconv.Atoi(vals[10])
	s.Seed, _ = strconv.ParseUint(strings.TrimPrefix(vals[11], "0x"), 16, 64)
	if s.Key() != key {
		return Scenario{}, fmt.Errorf("sweep: key %q is not canonical (want %q)", key, s.Key())
	}
	return s, nil
}
