package core

import (
	"reflect"
	"testing"

	"repro/internal/snapshot"
)

// TestStatsStateCoversEveryField pins the state walk of the flat Stats record
// against the struct: every field set to a distinct non-zero value must
// survive a capture and a restore into the zero value. A counter added to
// Stats and not to the walk fails here instead of silently reading zero after
// a resume.
func TestStatsStateCoversEveryField(t *testing.T) {
	var want, got Stats
	v := reflect.ValueOf(&want).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetUint(uint64(i + 1)) // a field that is no counter panics: teach the walk and this test
	}
	enc := &snapshot.Encoder{}
	want.state(enc.Codec())
	c := snapshot.NewDecoder(enc.Bytes()).Codec()
	got.state(c)
	if err := c.Finish(); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("the walk does not reach every field:\nrestored %+v\ncaptured %+v", got, want)
	}
}
