package core

import (
	"strings"
	"testing"
)

// TestCatalogOrderAndIDs pins the report order and the selection keys the
// commands and docs name.
func TestCatalogOrderAndIDs(t *testing.T) {
	var ids []string
	for _, e := range Catalog() {
		if e.Title == "" || e.Render == nil {
			t.Fatalf("experiment %q has no title or renderer", e.ID)
		}
		ids = append(ids, e.ID)
	}
	if got, want := strings.Join(ids, ","), "t2,t3,t4,f2,f3,f4,f5,f6,f7,ab"; got != want {
		t.Fatalf("catalog ids = %s, want %s", got, want)
	}
}
