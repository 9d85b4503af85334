package engine

import (
	"reflect"
	"testing"

	"clustersim/internal/pipeline"
)

// Bumping any leaf field of the resolved config changes its hash, so an
// edit to DefaultConfig (or to any override) invalidates every key that
// covered the old machine. Leaves are found by reflection, so a field
// added to pipeline.Config later is covered without editing this test.
func TestConfigHashCoversEveryLeaf(t *testing.T) {
	e := New(Options{})
	base := pipeline.DefaultConfig(2)
	baseHash := e.configHash(base)
	leaves := 0
	var walk func(v reflect.Value, path string)
	walk = func(v reflect.Value, path string) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				f := v.Type().Field(i)
				if path == "Config" && f.Name == "Cancel" {
					continue // per-run cancellation, never part of a key
				}
				walk(v.Field(i), path+"."+f.Name)
			}
			return
		case reflect.Int, reflect.Int64:
			v.SetInt(v.Int() + 1)
			defer v.SetInt(v.Int() - 1)
		case reflect.Uint8:
			v.SetUint(v.Uint() + 1)
			defer v.SetUint(v.Uint() - 1)
		case reflect.Bool:
			v.SetBool(!v.Bool())
			defer v.SetBool(!v.Bool())
		default:
			t.Fatalf("%s: unhandled kind %s; extend the walk", path, v.Kind())
		}
		leaves++
		if e.configHash(base) == baseHash {
			t.Errorf("bumping %s leaves the config hash unchanged", path)
		}
	}
	walk(reflect.ValueOf(&base).Elem(), "Config")
	if e.configHash(base) != baseHash {
		t.Fatal("walk did not restore the config")
	}
	if leaves < 20 {
		t.Fatalf("walk found only %d leaf fields", leaves)
	}
}
