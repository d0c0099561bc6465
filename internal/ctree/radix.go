// LSD radix sorting of packed keys — the build's Morton sort
// (DESIGN.md §12).
//
// Build's sort phase (sortShard in build.go), which InsertBatch runs
// too, orders points by their packed root-to-leaf path key before
// counting. The keys are dense unsigned integers
// (d·(H-1) bits for the single-word path layout), which makes an LSD
// counting sort strictly cheaper than comparison sorting: one histogram
// pass over all eight byte lanes, then one scatter pass per byte lane
// that actually varies. Constant lanes — the top bytes of a 45-bit key,
// or any lane the keys happen to agree on — are skipped outright, so a
// 15-dim H=4 stream pays ~6 scatter passes instead of an O(m·log m)
// comparison sort with an interface or closure call per comparison.
//
// radixSortPairs sorts a key column with one uint64 payload column
// riding along: the level-H parity word of a record stream. LSD
// counting passes are stable, so equal keys keep their arrival order —
// the (key, arrival) tie-break, encoded positionally.
//
// Multi-word path keys (d·(H-1) > 64) fall back to a comparison sort
// over the permutation (sortKeyOrder in build.go); the radix kernel is
// deliberately single-word.
package ctree

// radixSortPairs stable-sorts the key column ascending, carrying the
// payload column along (payload[i] stays attached to key[i]). keyTmp
// and payTmp are same-length scratch. Equal keys keep their input
// order — LSD counting passes are stable — which is how callers encode
// the original-index tie-break positionally. Returns the slices that
// hold the sorted columns.
func radixSortPairs(key, payload, keyTmp, payTmp []uint64) (sortedKey, sortedPayload []uint64) {
	n := len(key)
	if n < 2 {
		return key, payload
	}
	var hist [8][256]int32
	for _, v := range key {
		hist[0][v&0xff]++
		hist[1][(v>>8)&0xff]++
		hist[2][(v>>16)&0xff]++
		hist[3][(v>>24)&0xff]++
		hist[4][(v>>32)&0xff]++
		hist[5][(v>>40)&0xff]++
		hist[6][(v>>48)&0xff]++
		hist[7][v>>56]++
	}
	srcK, dstK := key, keyTmp
	srcP, dstP := payload, payTmp
	for lane := 0; lane < 8; lane++ {
		h := &hist[lane]
		shift := uint(8 * lane)
		if int(h[(srcK[0]>>shift)&0xff]) == n {
			continue
		}
		var pos [256]int32
		var sum int32
		for b := 0; b < 256; b++ {
			pos[b] = sum
			sum += h[b]
		}
		for i, v := range srcK {
			b := (v >> shift) & 0xff
			p := pos[b]
			dstK[p] = v
			dstP[p] = srcP[i]
			pos[b] = p + 1
		}
		srcK, dstK = dstK, srcK
		srcP, dstP = dstP, srcP
	}
	return srcK, srcP
}
