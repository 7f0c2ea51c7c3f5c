package serve

import (
	"encoding/json"
	"testing"
)

// hugeNodesBody is a submission whose node count, unbounded, would
// size the worker's per-node allocations past any host's memory.
const hugeNodesBody = `{"workload":"gzip","nodes":4611686018427387904,"budget_w":1}`

// FuzzJobSpec feeds arbitrary request bodies through the intake path —
// decode, Normalize, Validate — which must never panic. Every accepted
// spec must respect the node bound, and its content address must
// survive a canonical round trip: Canonical → decode → Normalize
// yields the same job ID.
func FuzzJobSpec(f *testing.F) {
	for _, seed := range []string{
		hugeNodesBody,
		`{"workload":"ammp","seed":1}`,
		`{"workload":"ammp","governor":"pm:limit=14.5,degrade","iterations":2,"max_ticks":10,"thermal":true}`,
		`{"workload":"gzip","nodes":3,"budget_w":40,"chain":"ideal"}`,
		`{"workload":"gzip","nodes":8,"budget_w":120,"levels":2,"fanout":4,"tenant":"a.b-c"}`,
		`{"experiment":"fig5","seed":3,"scale":8}`,
		`{"workload":"gzip","nodes":2,"budget_w":30,"levels":3,"fanout":9223372036854775807}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var js JobSpec
		if err := json.Unmarshal(body, &js); err != nil {
			return
		}
		norm := js.Normalize()
		if err := norm.Validate(); err != nil {
			return
		}
		if norm.Nodes > maxJobNodes {
			t.Fatalf("accepted %d nodes, above the %d limit", norm.Nodes, maxJobNodes)
		}
		var back JobSpec
		if err := json.Unmarshal(norm.Canonical(), &back); err != nil {
			t.Fatalf("canonical bytes %s do not decode: %v", norm.Canonical(), err)
		}
		if got, want := back.Normalize().ID(), norm.ID(); got != want {
			t.Fatalf("canonical round trip changed the ID: %s vs %s (%s)", got, want, norm.Canonical())
		}
	})
}
