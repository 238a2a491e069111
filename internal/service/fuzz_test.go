package service

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"math/big"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"salsa/internal/clock"
)

// jobIDForm is the job-ID grammar: "j", decimal digits, "-", then one
// or more lowercase hex digits. issuedJobID is the form create issues:
// the hex part is a SHA-256.
var (
	jobIDForm   = regexp.MustCompile(`^j([0-9]+)-[0-9a-f]+$`)
	issuedJobID = regexp.MustCompile(`^j[0-9]+-[0-9a-f]{64}$`)
)

// wantJobID is the reference for ValidJobID: id is valid when it
// matches jobIDForm and its number fits an int.
func wantJobID(id string) bool {
	m := jobIDForm.FindStringSubmatch(id)
	if m == nil {
		return false
	}
	n, _ := new(big.Int).SetString(m[1], 10)
	return n.Cmp(big.NewInt(math.MaxInt)) <= 0
}

// FuzzJobID checks ValidJobID against the grammar on any string, and
// that every ID the registry issues is valid, of the issued form and
// suffixed with its content key's SHA-256, also after a restore has
// moved its sequence to the fuzzed ID's number.
func FuzzJobID(f *testing.F) {
	for _, id := range []string{
		// Issued and older-form IDs from the service and router tests.
		"j7-3c62da355d7c", "j2-0123456789ab", "j1-deadbeef", "j1-abc",
		"j1-" + strings.Repeat("de", 32),
		// Malformed ones from the same tests, router shard prefix
		// stripped where they had one.
		"", "j1", "j1-", "j-1-ab", "j+1-ab", "jx-ab", "x1-ab", "j1-AB",
		"j1-ab/../metrics", "../metrics", "nonsense", "not-a-job",
		"j1-DEADBEEF", "..%2Fmetrics", "..%2F..%2Fdebug%2Fvars",
		"j1-ab%2F..%2F..%2Fmetrics", "s0-j1-abc",
		// The edges of the number.
		"j0-0", "j007-ab", fmt.Sprintf("j%d-ab", math.MaxInt),
		fmt.Sprintf("j%d0-ab", math.MaxInt), "j18446744073709551616-ab",
	} {
		f.Add(id)
	}
	f.Fuzz(func(t *testing.T, id string) {
		if got, want := ValidJobID(id), wantJobID(id); got != want {
			t.Errorf("ValidJobID(%q) = %t, want %t", id, got, want)
		}

		r := newJobRegistry(2, retainFinished, clock.NewVirtual())
		if _, ok := r.restore(id); !ok {
			t.Fatalf("restore(%q) refused by an empty registry", id)
		}
		j, err := r.create(id)
		if err != nil {
			return // a full registry or an exhausted sequence issues nothing
		}
		if !ValidJobID(j.id) || !issuedJobID.MatchString(j.id) {
			t.Fatalf("create issued %q, not a valid jN-<64 hex> ID", j.id)
		}
		if want := fmt.Sprintf("%x", sha256.Sum256([]byte(id))); !strings.HasSuffix(j.id, "-"+want) {
			t.Fatalf("create issued %q, want the suffix -%s", j.id, want)
		}
	})
}

// FuzzAllocateRequest decodes arbitrary bytes as a request body and
// runs the request parsing the router and the backend share. Nothing
// may panic; an accepted request respects the caps and gets a deadline
// in (0, MaxTimeout]; and the router's ContentKey agrees with the
// backend's parseRequest, both on whether the request is valid and on
// its key.
func FuzzAllocateRequest(f *testing.F) {
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.json"))
	if err != nil || len(files) == 0 {
		f.Fatalf("no corpus graphs (%v)", err)
	}
	for i, path := range files {
		graph, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		for _, ar := range []AllocateRequest{
			{Graph: graph},
			{Graph: graph, Seed: int64(i + 1), Restarts: 2, TimeoutMS: 250},
			// The largest timeout_ms that converted to a Duration without
			// wrapping past zero, and the smallest that did.
			{Graph: graph, TimeoutMS: 9223372036854775},
			{Graph: graph, TimeoutMS: 9223372036854776},
			{Graph: graph, Mode: "traditional", Steps: MaxSteps, ExtraRegisters: MaxExtraRegisters, Restarts: MaxRestarts},
		} {
			body, err := json.Marshal(ar)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(body)
		}
	}
	f.Add([]byte(`{"graph": {"name": "x", "nodes": []}, "restarts": -1, "timeout_ms": -5}`))

	s := &Server{cfg: Config{}.withDefaults()}
	f.Fuzz(func(t *testing.T, body []byte) {
		var ar AllocateRequest
		if json.Unmarshal(body, &ar) != nil {
			return
		}
		_, key, kerr := ar.ContentKey()
		spec, perr := s.parseRequest(&ar)
		if (kerr == nil) != (perr == nil) {
			t.Fatalf("ContentKey error %v, parseRequest error %v", kerr, perr)
		}
		if perr != nil {
			return
		}
		if spec.key != key {
			t.Fatalf("parseRequest key %q, ContentKey key %q", spec.key, key)
		}
		req := spec.req
		switch {
		case req.Restarts < 1 || req.Restarts > MaxRestarts:
			t.Fatalf("accepted restarts %d outside [1, %d]", req.Restarts, MaxRestarts)
		case req.Params.ExtraRegisters < 0 || req.Params.ExtraRegisters > MaxExtraRegisters:
			t.Fatalf("accepted extra_registers %d outside [0, %d]", req.Params.ExtraRegisters, MaxExtraRegisters)
		case req.Params.Steps < 0 || req.Params.Steps > MaxSteps:
			t.Fatalf("accepted steps %d outside [0, %d]", req.Params.Steps, MaxSteps)
		case req.Mode != "salsa" && req.Mode != "traditional":
			t.Fatalf("accepted mode %q", req.Mode)
		case spec.timeout <= 0 || spec.timeout > s.cfg.MaxTimeout:
			t.Fatalf("timeout_ms %d parsed to %v, want it in (0, %v]", ar.TimeoutMS, spec.timeout, s.cfg.MaxTimeout)
		}
	})
}
