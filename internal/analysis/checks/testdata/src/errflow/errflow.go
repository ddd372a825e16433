// Fixture for the errflow analyzer: dropped errors from watched
// serialization/IO methods, interprocedural watched-error provenance,
// the infallible-receiver exemptions, and the sanctioned //lint:allow
// discard.
package errflow

import (
	"bytes"
	"net/http"
)

type Syn struct{ n int }

func (s *Syn) MarshalBinary() ([]byte, error) { return nil, nil }

func handler(w http.ResponseWriter, s *Syn) {
	b, err := s.MarshalBinary()
	if err != nil {
		return
	}
	w.Write(b)                         // want "the error from w.Write is discarded"
	_, _ = w.Write(b)                  // want "the error from w.Write is discarded"
	_ = persist(s)                     // want "discarded error from persist carries a serialization/IO failure"
	if err := persist(s); err != nil { // checked: no finding
		_ = err
	}
}

// persist returns an error that originates at a MarshalBinary site,
// so its callers inherit the obligation.
func persist(s *Syn) error {
	_, err := s.MarshalBinary()
	return err
}

func dropDirect(s *Syn) {
	s.MarshalBinary() // want "the error from s.MarshalBinary is discarded"
}

// bytes.Buffer writes are documented infallible: exempt.
func buffered(b []byte) int {
	var buf bytes.Buffer
	buf.Write(b)
	return buf.Len()
}

func allowed(w http.ResponseWriter, b []byte) {
	_, _ = w.Write(b) //lint:allow errflow best-effort write to a client that may be gone
}
