package opt

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"physched/internal/spec"
)

// TestWireStructsTagEveryField pins the snake_case wire convention on
// everything that is canonically encoded and content-hashed: every
// exported field of every struct reachable from a spec, grid, study or
// study report needs an explicit snake_case json tag. An untagged field
// would put its Go name on the wire and into every hash. Map fields need
// no rule: encoding/json sorts map keys, so they encode canonically.
func TestWireStructsTagEveryField(t *testing.T) {
	marshaler := reflect.TypeOf((*json.Marshaler)(nil)).Elem()
	seen := map[reflect.Type]bool{}
	var walk func(reflect.Type)
	walk = func(typ reflect.Type) {
		for typ.Kind() == reflect.Pointer || typ.Kind() == reflect.Slice ||
			typ.Kind() == reflect.Array || typ.Kind() == reflect.Map {
			typ = typ.Elem()
		}
		if typ.Kind() != reflect.Struct || seen[typ] || typ.Implements(marshaler) ||
			!strings.HasPrefix(typ.PkgPath(), "physched/") {
			return
		}
		seen[typ] = true
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if !f.IsExported() {
				continue
			}
			tag, ok := f.Tag.Lookup("json")
			name, _, _ := strings.Cut(tag, ",")
			switch {
			case !ok:
				t.Errorf("%s.%s has no json tag", typ, f.Name)
				continue
			case name == "-":
				continue
			case !isSnakeCase(name):
				t.Errorf("%s.%s: json name %q is not snake_case ([a-z0-9_])", typ, f.Name, name)
			}
			walk(f.Type)
		}
	}
	for _, root := range []any{spec.Spec{}, spec.Grid{}, Study{}, Report{}} {
		walk(reflect.TypeOf(root))
	}
	if len(seen) < 4 {
		t.Fatalf("walked only %d structs", len(seen))
	}
}

func isSnakeCase(s string) bool {
	for _, r := range s {
		if (r < 'a' || r > 'z') && (r < '0' || r > '9') && r != '_' {
			return false
		}
	}
	return s != ""
}
