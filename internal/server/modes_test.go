// The mode round-trip exhaustiveness battery: every machine organisation
// in internal/sim's single mode table must survive the whole naming chain
// unchanged — Mode.String → ParseMode → the JSON text form → the daemon's
// canonical request key → the campaign gate. A mode added to the table
// but not plumbed through any one of these fails here, not in a user's
// terminal.
package server

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
)

func TestModeRoundTripExhaustive(t *testing.T) {
	for _, m := range sim.Modes() {
		name := m.String()
		t.Run(name, func(t *testing.T) {
			// Name table: the mode's own name parses back to it.
			if got, err := sim.ParseMode(name); err != nil || got != m {
				t.Fatalf("ParseMode(%q) = %v, %v; want %v", name, got, err, m)
			}

			// Text form: JSON spells the mode by name and decodes it back.
			enc, err := json.Marshal(m)
			if err != nil || string(enc) != fmt.Sprintf("%q", name) {
				t.Fatalf("json.Marshal(%v) = %s, %v; want %q", m, enc, err, name)
			}
			var back sim.Mode
			if err := json.Unmarshal(enc, &back); err != nil || back != m {
				t.Fatalf("json.Unmarshal(%s) = %v, %v; want %v", enc, back, err, m)
			}

			// Wire layer: a /run request in this mode canonicalises with the
			// mode intact.
			body := fmt.Sprintf(`{"mode":%q,"programs":["li"]}`, name)
			req, key, err := parseRun([]byte(body))
			if err != nil {
				t.Fatalf("parseRun: %v", err)
			}
			if req.Mode != m {
				t.Fatalf("parseRun resolved mode %v, want %v", req.Mode, m)
			}
			if !strings.HasPrefix(key, "run:") {
				t.Fatalf("canonical key %q lacks endpoint prefix", key)
			}
			// Canonicalisation is a fixed point: re-parsing the canonical
			// request yields the same key.
			canon, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			if _, key2, err := parseRun(canon); err != nil || key2 != key {
				t.Fatalf("canonical key not a fixed point: %q vs %q (%v)", key, key2, err)
			}

			// Campaign gate: the wire accepts exactly the modes the fault
			// engine runs campaigns for.
			cbody := fmt.Sprintf(`{"mode":%q,"programs":["li"],"n":4}`, name)
			creq, _, cerr := parseCampaign([]byte(cbody))
			if fault.CampaignMode(m) {
				if cerr != nil {
					t.Fatalf("parseCampaign rejects campaign-capable mode: %v", cerr)
				}
				if creq.Mode != m {
					t.Fatalf("parseCampaign resolved mode %v, want %v", creq.Mode, m)
				}
			} else if cerr == nil {
				t.Fatalf("parseCampaign accepted %q, but the fault engine cannot campaign it", name)
			}
		})
	}
}
