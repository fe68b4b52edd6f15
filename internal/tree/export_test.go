package tree

import "unsafe"

// Column is one column of a Doc as the external tests see it: length,
// capacity, element size and backing array.
type Column struct {
	Name           string
	Len, Cap, Size int
	Data           unsafe.Pointer
}

func column[T any](name string, s []T) Column {
	var z T
	return Column{name, len(s), cap(s), int(unsafe.Sizeof(z)), unsafe.Pointer(unsafe.SliceData(s))}
}

// depthOf counts the ancestors of node pre by walking parents: 0 for a
// document node.
func depthOf(d *Doc, pre int32) int {
	n := 0
	for p := d.Parent(pre); p >= 0; p = d.Parent(p) {
		n++
	}
	return n
}

// Columns returns every column of d: the node rows, the attribute rows,
// attFirst and the value arena.
func Columns(d *Doc) []Column {
	return []Column{
		column("kind", d.kind), column("name", d.name), column("size", d.size),
		column("parent", d.parent), column("valOff", d.valOff), column("valLen", d.valLen),
		column("attName", d.attName), column("attValOf", d.attValOf), column("attValLn", d.attValLn),
		column("attFirst", d.attFirst), column("content", d.content),
	}
}
