package mpicd_test

import (
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"mpicd/internal/fabric"
	"mpicd/internal/ucp"
)

// TestConfigSurface holds the settable configuration where DESIGN.md's
// "Configuration surface" says it is: each struct has the field count its
// table heading states and every field has a row, so a new knob comes with
// the row that says who sets it, in the same change.
func TestConfigSurface(t *testing.T) {
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	sec := string(doc)
	start := strings.Index(sec, "### Configuration surface")
	if start < 0 {
		t.Fatal(`DESIGN.md has no "### Configuration surface" section`)
	}
	sec = sec[start:]
	if end := strings.Index(sec, "\n## "); end >= 0 {
		sec = sec[:end]
	}
	for _, c := range []struct {
		name   string
		typ    reflect.Type
		fields int
	}{
		{"fabric.Config", reflect.TypeOf(fabric.Config{}), 5},
		{"ucp.Config", reflect.TypeOf(ucp.Config{}), 9},
		{"ucp.DetectorConfig", reflect.TypeOf(ucp.DetectorConfig{}), 4},
	} {
		if n := c.typ.NumField(); n != c.fields {
			t.Errorf("%s has %d fields, want %d: a knob added or removed updates this test and DESIGN.md's table", c.name, n, c.fields)
		}
		head := fmt.Sprintf("`%s` (%d fields", c.name, c.typ.NumField())
		at := strings.Index(sec, head)
		if at < 0 {
			t.Errorf("DESIGN.md's configuration surface has no heading %q", head)
			continue
		}
		table := sec[at:]
		rows := strings.Index(table, "\n|")
		if rows < 0 {
			t.Errorf("DESIGN.md's %s heading has no table", c.name)
			continue
		}
		table = table[rows:]
		if end := strings.Index(table, "\n\n"); end >= 0 {
			table = table[:end]
		}
		for i := 0; i < c.typ.NumField(); i++ {
			if f := c.typ.Field(i).Name; !strings.Contains(table, "`"+f+"`") {
				t.Errorf("DESIGN.md's %s table has no row naming `%s`", c.name, f)
			}
		}
	}
}
