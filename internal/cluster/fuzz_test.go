package cluster

import (
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzApplyChange feeds arbitrary POST /v1/members bodies to the
// membership parser. Whatever the input, applying it must not panic, a
// rejected change must leave the member list as it was, and an accepted
// one must leave a non-empty list of distinct, valid base URLs. The
// seed corpus lives in testdata/fuzz/FuzzApplyChange.
func FuzzApplyChange(f *testing.F) {
	f.Add([]byte(`{"action":"add","node":"http://node-d:1"}`))
	f.Add([]byte(`{"action":"set","nodes":["http://node-a:1","http://node-x:1"]}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		var ch MemberChange
		if err := json.Unmarshal(body, &ch); err != nil {
			return
		}
		ring, err := NewRing(threeNodes(), 8)
		if err != nil {
			t.Fatal(err)
		}
		before := ring.Nodes()
		added, removed, err := applyChange(ring, ch)
		after := ring.Nodes()
		if err != nil {
			if !reflect.DeepEqual(after, before) {
				t.Fatalf("rejected change %+v (%v) moved members %v -> %v", ch, err, before, after)
			}
			return
		}
		if len(after) == 0 {
			t.Fatalf("change %+v emptied the ring", ch)
		}
		seen := make(map[string]bool, len(after))
		for _, n := range after {
			if err := validateNodeURL(n); err != nil {
				t.Fatalf("change %+v admitted an invalid member: %v", ch, err)
			}
			if seen[n] {
				t.Fatalf("change %+v left duplicate member %q in %v", ch, n, after)
			}
			seen[n] = true
		}
		if want := len(before) + len(added) - len(removed); len(after) != want {
			t.Fatalf("change %+v: %d members, want %d (+%v -%v)", ch, len(after), want, added, removed)
		}
	})
}
