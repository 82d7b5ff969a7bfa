package service

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzPackedFront decodes arbitrary bytes into a wire front and packs it.
// Materializing the packed front must give back a front that deep-equals
// the decoded one and marshals to the same bytes, whether the front packs
// one byte per gene or keeps its odd copy (ragged points, genes outside
// [0, 256), null configs or objectives); an empty front must stay empty
// and a null one null. The front must also come back unchanged from a
// durable Store, read before and after the store is reopened.
func FuzzPackedFront(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var front []FrontPoint
		if json.Unmarshal(data, &front) != nil {
			return
		}
		want, err := json.Marshal(front)
		if err != nil {
			t.Fatalf("decoded front does not encode: %v", err)
		}
		got := pack(front).points()
		if !reflect.DeepEqual(got, front) {
			t.Fatalf("packed front reads back as\n%#v\nwant\n%#v", got, front)
		}
		if b, _ := json.Marshal(got); !bytes.Equal(b, want) {
			t.Fatalf("packed front encodes as %s, want %s", b, want)
		}

		cfg := StoreConfig{Dir: t.TempDir()}
		s, err := NewStore(cfg)
		if err != nil {
			t.Fatal(err)
		}
		v, err := s.Put(StoredResult{Scenario: "ecg-ward", Algorithm: AlgoNSGA2, Front: front})
		if err != nil {
			t.Fatal(err)
		}
		r, ok := s.Get(v)
		if !ok || !reflect.DeepEqual(r.Front, front) {
			t.Fatalf("Store.Get(%d) = %#v (found %v), want %#v", v, r.Front, ok, front)
		}
		s.Close()
		if s, err = NewStore(cfg); err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if r, ok = s.Get(v); !ok || !reflect.DeepEqual(r.Front, front) {
			t.Fatalf("reopened Store.Get(%d) = %#v (found %v), want %#v", v, r.Front, ok, front)
		}
	})
}
