// Fuzzing the request decoder: whatever bytes arrive at POST /v1/jobs,
// decoding must never panic, and any request that validates must
// survive a marshal/decode/validate round trip unchanged — the
// normalized form is a fixed point. And fuzzing the journal fold: any
// record sequence folds to first-wins state.
package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/journal"
)

func FuzzJobRequest(f *testing.F) {
	seeds := []string{
		`{}`,
		`{"experiment":"fig10a","scale":256}`,
		`{"experiment":"all","scale":64,"devices":8,"topology":true}`,
		`{"experiment":"faults","fault_plan":"cardloss","timeout_ms":5000,"client":"fuzz"}`,
		`{"fault_plan":"detect 100us\ncard 1 death 2ms","fault_name":"inline"}`,
		`{"experiment":"nope"}`,
		`{"scale":-1}`,
		`{"experiment":"t1"} trailing`,
		`{"unknown":"field"}`,
		`[1,2,3]`,
		`"just a string"`,
		`{`,
		``,
		"\x00\xff\xfe",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeJobRequest(bytes.NewReader(data))
		if err != nil {
			return // rejected bytes just need to not panic
		}
		plan, err := req.Normalize()
		if err != nil {
			return
		}
		// A validated request is normalized: re-encoding and re-decoding
		// it must reproduce the same request and the same plan.
		enc, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("marshal normalized request: %v", err)
		}
		req2, err := DecodeJobRequest(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("re-decode %s: %v", enc, err)
		}
		plan2, err := req2.Normalize()
		if err != nil {
			t.Fatalf("re-validate %s: %v", enc, err)
		}
		if !reflect.DeepEqual(req, req2) {
			t.Fatalf("round trip changed request: %+v != %+v", req, req2)
		}
		if (plan == nil) != (plan2 == nil) {
			t.Fatalf("round trip changed plan presence: %v != %v", plan, plan2)
		}
		if plan != nil && !reflect.DeepEqual(plan, plan2) {
			t.Fatalf("round trip changed plan: %+v != %+v", plan, plan2)
		}
	})
}

// FuzzReplayFold: any sequence of records folds without a panic, and the
// fold keeps, per id, exactly the first accept and the first terminal
// record, with the accepted ids in first-accept order. Each record is two
// input bytes: its kind (any byte, so kinds no version writes too) and
// one of four ids; its UnixMilli is its position, which identifies it.
func FuzzReplayFold(f *testing.F) {
	f.Add([]byte{1, 0, 3, 0})                         // accept, then done
	f.Add([]byte{3, 0, 1, 0, 1, 0, 4, 0, 5, 1})       // terminal first, second accept, second terminal
	f.Add([]byte{2, 1, 5, 2, 0, 3, 9, 3, 1, 2, 1, 1}) // dispatched, unaccepted terminal, unknown kinds
	f.Fuzz(func(t *testing.T, data []byte) {
		var st replay
		firstAccept, firstTerminal := map[string]int64{}, map[string]int64{}
		var order []string
		for i := 0; i+1 < len(data); i += 2 {
			r := journal.Record{Kind: journal.Kind(data[i]), ID: fmt.Sprintf("j%06d", data[i+1]%4),
				UnixMilli: int64(i / 2)}
			st.apply(r)
			switch r.Kind {
			case journal.Accepted:
				if _, ok := firstAccept[r.ID]; !ok {
					firstAccept[r.ID] = r.UnixMilli
					order = append(order, r.ID)
				}
			case journal.Done, journal.Failed, journal.Cancelled:
				if _, ok := firstTerminal[r.ID]; !ok {
					firstTerminal[r.ID] = r.UnixMilli
				}
			}
		}
		if !slices.Equal(st.order, order) {
			t.Fatalf("fold order %v, want %v", st.order, order)
		}
		for id, e := range st.jobs {
			if at, ok := firstAccept[id]; ok != (e.accept != nil) || ok && e.accept.UnixMilli != at {
				t.Fatalf("%s: folded accept %+v, want the one at %d (present %v)", id, e.accept, at, ok)
			}
			if at, ok := firstTerminal[id]; ok != (e.terminal != nil) || ok && e.terminal.UnixMilli != at {
				t.Fatalf("%s: folded terminal %+v, want the one at %d (present %v)", id, e.terminal, at, ok)
			}
		}
		for id := range firstTerminal {
			if st.jobs[id] == nil {
				t.Fatalf("%s: terminal record dropped from the fold", id)
			}
		}
	})
}
