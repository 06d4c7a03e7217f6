package analysis

import (
	"reflect"
	"testing"

	"opaque/internal/storage"
)

// TestAccessorMethodsMatchStorage keeps snapshotpin's method set in step with
// the real storage.Accessor: a method added to the interface would otherwise
// be readable on a *storage.MutableGraph unflagged, and a removed one would
// linger in the analyzer.
func TestAccessorMethodsMatchStorage(t *testing.T) {
	iface := reflect.TypeOf((*storage.Accessor)(nil)).Elem()
	methods := make(map[string]bool, iface.NumMethod())
	for i := 0; i < iface.NumMethod(); i++ {
		methods[iface.Method(i).Name] = true
	}
	if !reflect.DeepEqual(methods, accessorMethods) {
		t.Errorf("snapshotpin accessorMethods = %v, storage.Accessor has %v", accessorMethods, methods)
	}
}
