package thermal

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"sync"
)

// warmEntries bounds the warm-steady memo. It holds the 12 stock
// geometries — 3 nodes × (the default stack + 3 stacked presets) — with
// room for a few Ψ grids. Worst case: 16 entries of the largest stock
// state (14 nm stacked, 91×62×12 cells, 541 KB), about 8.7 MB.
const warmEntries = 16

// warm is the process-wide warm-steady memo behind WarmSteady.
var warm = &warmMemo{entries: make(map[warmKey][]float64, warmEntries)}

// warmKey is the sha256 digest of every input a warm steady solve reads.
type warmKey [sha256.Size]byte

// warmMemo maps warm-steady inputs to their solved state, least recently
// used evicted first. Stored slices are never written after put, so a
// reader may copy one outside the lock even if it is evicted meanwhile.
type warmMemo struct {
	mu      sync.Mutex
	entries map[warmKey][]float64
	order   []warmKey // least recently used first
}

// WarmSteady sets s to the steady state of the grid under the given
// power: exactly the bits of WarmStart followed by SolveSteady(g, s,
// power, tol, 0), whatever s held before. The result depends only on
// the grid, the power frames and tol, so it is memoized process-wide in
// a small bounded table (warmEntries states, least recently used
// evicted); reused reports a memo hit, which copies the stored state
// into s instead of solving. Failed solves are not stored. Safe for
// concurrent use. WarmStart and SolveSteady themselves stay unmemoized.
func WarmSteady(g *Grid, s *State, power *Power, tol float64) (reused bool, err error) {
	if err := g.checkPower(power); err != nil {
		return false, err
	}
	if len(s.T) != g.Cells() {
		return false, fmt.Errorf("thermal: state has %d cells, grid has %d", len(s.T), g.Cells())
	}
	key := warmKeyOf(g, power, tol)
	if t := warm.get(key); t != nil {
		copy(s.T, t)
		return true, nil
	}
	if err := WarmStart(g, s, power); err != nil {
		return false, err
	}
	if _, err := SolveSteady(g, s, power, tol, 0); err != nil {
		return false, err
	}
	warm.put(key, s.T)
	return false, nil
}

// get returns the stored state for key, or nil, and marks it used.
func (m *warmMemo) get(key warmKey) []float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	t, ok := m.entries[key]
	if ok {
		m.touch(key)
	}
	return t
}

// put stores a copy of t under key, evicting the least recently used
// entry at the bound. A key stored meanwhile by a concurrent solve of
// the same inputs keeps its (identical) state.
func (m *warmMemo) put(key warmKey, t []float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.entries[key]; ok {
		m.touch(key)
		return
	}
	if len(m.order) >= warmEntries {
		delete(m.entries, m.order[0])
		m.order = append(m.order[:0], m.order[1:]...)
	}
	m.entries[key] = append([]float64(nil), t...)
	m.order = append(m.order, key)
}

// touch moves key to the most recently used end of the order.
func (m *warmMemo) touch(key warmKey) {
	for i, k := range m.order {
		if k == key {
			copy(m.order[i:], m.order[i+1:])
			m.order[len(m.order)-1] = key
			return
		}
	}
}

// warmKeyOf digests every input of a warm steady solve: the grid's
// shape, pitch, ambient and conductances, its active planes, tol and
// the power frames' bits. Heat capacity does not enter the steady state
// but is digested too, so the key names the whole grid.
func warmKeyOf(g *Grid, power *Power, tol float64) warmKey {
	d := digester{h: sha256.New()}
	d.int(g.NX)
	d.int(g.NY)
	d.int(g.NL)
	d.float(g.Dx)
	d.float(g.Ambient)
	d.float(g.gConv)
	for l := 0; l < g.NL; l++ {
		d.float(g.gLat[l])
		d.float(g.gUp[l])
		d.float(g.capC[l])
	}
	d.int(len(g.active))
	for _, l := range g.active {
		d.int(l)
	}
	d.float(tol)
	for _, f := range power.Frames {
		for _, v := range f.Data {
			d.float(v)
		}
	}
	var key warmKey
	d.flush()
	d.h.Sum(key[:0])
	return key
}

// digester feeds fixed-width little-endian values to a hash through a
// fixed buffer, so a key costs one Write per 512 bytes and no
// allocation beyond the hash.
type digester struct {
	h   hash.Hash
	buf [512]byte
	n   int
}

func (d *digester) int(v int) { d.word(uint64(v)) }

func (d *digester) float(v float64) { d.word(math.Float64bits(v)) }

func (d *digester) word(v uint64) {
	if d.n == len(d.buf) {
		d.flush()
	}
	binary.LittleEndian.PutUint64(d.buf[d.n:], v)
	d.n += 8
}

func (d *digester) flush() {
	d.h.Write(d.buf[:d.n])
	d.n = 0
}
