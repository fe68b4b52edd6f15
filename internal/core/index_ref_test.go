package core

// The region-index builder this package shipped before the typed-sort build,
// kept verbatim as the oracle of the index identity tests: a map from area pre
// to rank, columns grown by append, and three sort.Slice calls over index
// permutations. refIndex holds the columns it produces.

import (
	"sort"

	"soxq/internal/interval"
)

type refIndex struct {
	nAreas, nRegions, nMulti int
	multiRegion              bool

	rStart, rEnd []int64
	rID          []int32
	bStart, bEnd []int64
	bID          []int32
	eStart, eEnd []int64
	eID          []int32

	areas    []int32
	areaOff  []int32
	areaRegs []interval.Region
	rankMap  map[int32]int32
}

func (ix *refIndex) addArea(pre int32, regions []interval.Region) {
	ix.rankMap[pre] = int32(len(ix.areas))
	ix.areas = append(ix.areas, pre)
	ix.areaOff = append(ix.areaOff, int32(len(ix.areaRegs)))
	ix.areaRegs = append(ix.areaRegs, regions...)
	for _, r := range regions {
		ix.rStart = append(ix.rStart, r.Start)
		ix.rEnd = append(ix.rEnd, r.End)
		ix.rID = append(ix.rID, pre)
	}
	ix.nAreas++
	ix.nRegions += len(regions)
	if len(regions) > 1 {
		ix.nMulti++
	}
	ix.multiRegion = ix.nMulti > 0
}

func (ix *refIndex) sortRows() {
	ix.areaOff = append(ix.areaOff, int32(len(ix.areaRegs)))
	perm := make([]int32, len(ix.rStart))
	for i := range perm {
		perm[i] = int32(i)
	}
	sort.Slice(perm, func(a, b int) bool {
		i, j := perm[a], perm[b]
		if ix.rStart[i] != ix.rStart[j] {
			return ix.rStart[i] < ix.rStart[j]
		}
		if ix.rEnd[i] != ix.rEnd[j] {
			return ix.rEnd[i] < ix.rEnd[j]
		}
		return ix.rID[i] < ix.rID[j]
	})
	ix.rStart = refPermute64(ix.rStart, perm)
	ix.rEnd = refPermute64(ix.rEnd, perm)
	ix.rID = refPermute32(ix.rID, perm)

	if !ix.multiRegion {
		ix.bStart, ix.bEnd, ix.bID = ix.rStart, ix.rEnd, ix.rID
		return
	}
	// Bounds table: one covering region per area.
	nA := len(ix.areas)
	ix.bStart = make([]int64, nA)
	ix.bEnd = make([]int64, nA)
	ix.bID = make([]int32, nA)
	bperm := make([]int32, nA)
	for i := 0; i < nA; i++ {
		regs := ix.areaRegs[ix.areaOff[i]:ix.areaOff[i+1]]
		ix.bStart[i] = regs[0].Start
		ix.bEnd[i] = regs[len(regs)-1].End
		ix.bID[i] = ix.areas[i]
		bperm[i] = int32(i)
	}
	sort.Slice(bperm, func(a, b int) bool {
		i, j := bperm[a], bperm[b]
		if ix.bStart[i] != ix.bStart[j] {
			return ix.bStart[i] < ix.bStart[j]
		}
		if ix.bEnd[i] != ix.bEnd[j] {
			return ix.bEnd[i] < ix.bEnd[j]
		}
		return ix.bID[i] < ix.bID[j]
	})
	ix.bStart = refPermute64(ix.bStart, bperm)
	ix.bEnd = refPermute64(ix.bEnd, bperm)
	ix.bID = refPermute32(ix.bID, bperm)
}

func (ix *refIndex) buildEndOrder() {
	p := make([]int32, len(ix.rStart))
	for i := range p {
		p[i] = int32(i)
	}
	sort.Slice(p, func(a, b int) bool {
		i, j := p[a], p[b]
		if ix.rEnd[i] != ix.rEnd[j] {
			return ix.rEnd[i] < ix.rEnd[j]
		}
		if ix.rStart[i] != ix.rStart[j] {
			return ix.rStart[i] < ix.rStart[j]
		}
		return ix.rID[i] < ix.rID[j]
	})
	ix.eStart = refPermute64(ix.rStart, p)
	ix.eEnd = refPermute64(ix.rEnd, p)
	ix.eID = refPermute32(ix.rID, p)
}

func refPermute64(v []int64, perm []int32) []int64 {
	out := make([]int64, len(v))
	for i, p := range perm {
		out[i] = v[p]
	}
	return out
}

func refPermute32(v []int32, perm []int32) []int32 {
	out := make([]int32, len(v))
	for i, p := range perm {
		out[i] = v[p]
	}
	return out
}
