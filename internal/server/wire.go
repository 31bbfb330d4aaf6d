// Wire format of the rmtd HTTP/JSON API, and the content-addressed keys
// the result cache is indexed by.
//
// A request body carries rmt.Spec in its own JSON spelling. It is
// canonicalised before anything else happens to it: decoded into a fixed
// struct (so incoming field order is irrelevant), validated and put in
// canonical form by rmt.Spec.Canonical (fields the mode ignores zeroed,
// equivalent spellings of a knob folded to one), default sizes resolved,
// and re-marshalled with the struct's fixed field order. The SHA-256 of
// that canonical encoding, prefixed with the endpoint name, is the cache
// key. encoding/json emits every field of the canonical struct exactly
// once in declaration order, so the encoding — and therefore the key — is
// injective on canonical requests: distinct experiments never collide,
// and the same experiment always maps to the same key however its JSON
// was spelled. FuzzCanonicalKey holds this contract in place.
package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/rmt"
)

// maxBodyBytes bounds a request body; a sweep of every kernel in every
// mode fits in a few KB, so 1 MiB is generous.
const maxBodyBytes = 1 << 20

// RunRequest is the body of POST /run.
type RunRequest struct {
	rmt.Spec
	// Budget/Warmup are instruction counts; 0 selects the rmt defaults
	// and is resolved to the concrete value before keying.
	Budget uint64 `json:"budget"`
	Warmup uint64 `json:"warmup"`
}

// SweepRequest is the body of POST /sweep: independent specs sharing one
// sizing, exactly like rmt.Sweep.
type SweepRequest struct {
	Specs  []rmt.Spec `json:"specs"`
	Budget uint64     `json:"budget"`
	Warmup uint64     `json:"warmup"`
}

// CampaignRequest is the body of POST /campaign: a deterministic
// transient-fault injection campaign (rmt.Campaign) against an RMT mode.
// The response is the rmt.CampaignSummary it returns.
type CampaignRequest struct {
	rmt.Spec
	// N is the number of injection trials; Seed draws the fault plan.
	N    int    `json:"n"`
	Seed uint64 `json:"seed"`
	// Budget/Warmup as in RunRequest (0 = campaign defaults).
	Budget uint64 `json:"budget"`
	Warmup uint64 `json:"warmup"`
}

// resolveSizes maps (budget, warmup) with 0 meaning "default" to the
// concrete defaults, so a request spelling the default explicitly and one
// omitting it are the same experiment (and the same cache key).
func resolveSizes(budget, warmup, defBudget, defWarmup uint64) (uint64, uint64) {
	if budget == 0 {
		budget = defBudget
	}
	if warmup == 0 {
		warmup = defWarmup
	}
	return budget, warmup
}

// maxCampaignTrials bounds one request's work.
const maxCampaignTrials = 10000

// canonicalKey hashes the encoding of a canonical request under its
// endpoint name. The endpoint is part of the preimage so /run
// and a one-spec /sweep of the same experiment cannot share an entry
// (their response shapes differ).
func canonicalKey(endpoint string, req any) string {
	enc, err := json.Marshal(req)
	if err != nil {
		panic(fmt.Sprintf("server: canonical marshal cannot fail: %v", err))
	}
	h := sha256.New()
	h.Write([]byte(endpoint))
	h.Write([]byte{0})
	h.Write(enc)
	return endpoint + ":" + hex.EncodeToString(h.Sum(nil))
}

// decodeStrict decodes body into v, rejecting unknown fields and trailing
// garbage — a mistyped field name must be a 400, not a silently-distinct
// cache key.
func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("trailing data after JSON body")
	}
	return nil
}

// parseRun canonicalises a /run body: decoded, validated, canonical,
// keyed.
func parseRun(body []byte) (RunRequest, string, error) {
	var req RunRequest
	if err := decodeStrict(body, &req); err != nil {
		return req, "", err
	}
	var err error
	if req.Spec, err = req.Spec.Canonical(); err != nil {
		return req, "", err
	}
	req.Budget, req.Warmup = resolveSizes(req.Budget, req.Warmup, rmt.DefaultBudget, rmt.DefaultWarmup)
	return req, canonicalKey("run", req), nil
}

// parseSweep canonicalises a /sweep body.
func parseSweep(body []byte) (SweepRequest, string, error) {
	var req SweepRequest
	if err := decodeStrict(body, &req); err != nil {
		return req, "", err
	}
	if len(req.Specs) == 0 {
		return req, "", fmt.Errorf("sweep has no specs")
	}
	for i := range req.Specs {
		var err error
		if req.Specs[i], err = req.Specs[i].Canonical(); err != nil {
			return req, "", fmt.Errorf("spec %d: %w", i, err)
		}
	}
	req.Budget, req.Warmup = resolveSizes(req.Budget, req.Warmup, rmt.DefaultBudget, rmt.DefaultWarmup)
	return req, canonicalKey("sweep", req), nil
}

// parseCampaign canonicalises a /campaign body.
func parseCampaign(body []byte) (CampaignRequest, string, error) {
	var req CampaignRequest
	if err := decodeStrict(body, &req); err != nil {
		return req, "", err
	}
	var err error
	if req.Spec, err = req.Spec.Canonical(); err != nil {
		return req, "", err
	}
	if !fault.CampaignMode(req.Mode) {
		return req, "", fmt.Errorf("campaign requires an RMT mode (%s), got %s", sim.ModeNames(fault.CampaignModes()), req.Mode)
	}
	if req.N <= 0 || req.N > maxCampaignTrials {
		return req, "", fmt.Errorf("campaign n must be in 1..%d, got %d", maxCampaignTrials, req.N)
	}
	req.Budget, req.Warmup = resolveSizes(req.Budget, req.Warmup, rmt.DefaultCampaignBudget, rmt.DefaultCampaignWarmup)
	return req, canonicalKey("campaign", req), nil
}

// EncodeResult renders one rmt.Result exactly as /run serves it: indented
// JSON plus a trailing newline. The e2e battery compares /run bodies
// against this encoding of a direct rmt.Run result byte for byte.
func EncodeResult(res *rmt.Result) []byte {
	return encodeJSON(res)
}

// EncodeResults renders a result slice exactly as /sweep serves it.
func EncodeResults(results []*rmt.Result) []byte {
	return encodeJSON(results)
}

func encodeJSON(v any) []byte {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		panic(fmt.Sprintf("server: response marshal cannot fail: %v", err))
	}
	return append(b, '\n')
}
