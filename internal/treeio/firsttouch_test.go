package treeio

import (
	"bytes"

	"mrcc/internal/ctree"
)

// firstTouchSnapshot returns the snapshot of tr, the Build tree of pts,
// with its rows in first-touch order: the rows ctree's per-point Insert
// oracle writes counting pts one at a time, where each cell takes the
// next row when a point first reaches it. A release before the
// canonical order saved a tree it grew batch by batch in this kind of
// order.
func firstTouchSnapshot(tr *ctree.Tree, pts [][]float64) []byte {
	c, d, H := tr.Columns(), tr.D, tr.H
	order := []ctree.Ref{0}            // tr's rows in first-touch order
	row := make([]ctree.Ref, c.Rows()) // each of tr's rows' first-touch row
	scale := float64(uint64(1) << uint(H))
	path := make(ctree.Path, H-1)
	for _, p := range pts {
		for h := 1; h < H; h++ {
			path[h-1] = 0
			for j, v := range p {
				path[h-1] |= (uint64(v*scale) >> uint(H-h) & 1) << uint(j)
			}
			if r := tr.CellAt(path[:h]); row[r] == 0 {
				row[r] = ctree.Ref(len(order))
				order = append(order, r)
			}
		}
	}
	n := len(order)
	ft := ctree.Columns{
		Loc: make([]uint64, n), N: make([]int32, n), Used: make([]bool, n),
		Level: make([]uint8, n), Parent: make([]ctree.Ref, n), P: make([]int32, n*d),
	}
	for i, r := range order {
		ft.Loc[i], ft.N[i], ft.Used[i], ft.Level[i] = c.Loc[r], c.N[r], c.Used[r], c.Level[r]
		ft.Parent[i] = ctree.NilRef
		if i > 0 {
			ft.Parent[i] = row[c.Parent[r]]
		}
		copy(ft.P[i*d:(i+1)*d], c.P[int(r)*d:(int(r)+1)*d])
	}
	var buf bytes.Buffer
	if _, err := Save(&buf, tr, Meta{}); err != nil {
		panic(err)
	}
	snap, off := buf.Bytes(), HeaderSize
	for _, col := range [numColumns][]byte{
		u64Bytes(ft.Loc), i32Bytes(ft.N), boolBytes(ft.Used), ft.Level, refBytes(ft.Parent), i32Bytes(ft.P),
	} {
		off += copy(snap[off:], col)
	}
	return fixChecksums(snap)
}
