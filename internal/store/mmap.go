package store

import (
	"fmt"
	"io"
	"sync"
)

// Mapped is a snapshot decoded zero-copy over a read-only memory-mapped
// file: the big numeric sections (topics Phi/NKV/NK, corpus word counts,
// hierarchy phi rows, advisor ranks) alias the mapped bytes instead of
// being copied to the heap, so opening a multi-gigabyte model costs page
// tables, not RSS, and pages load lazily as queries touch them.
//
// Safety rules (see docs/ARCHITECTURE.md "Serving v2"):
//
//   - The snapshot is strictly read-only. The mapping is PROT_READ where
//     the platform supports it — writing through an aliased slice faults.
//   - The mapping must outlive every aliased slice: call Close only when
//     nothing dereferences the snapshot anymore. The serving layer retires
//     replaced mappings until server Close for exactly this reason.
//   - Rewrite snapshots atomically (store.Write's temp-file + rename), so
//     an open mapping keeps reading the old inode while a new file lands
//     at the path.
//
// Every per-section CRC is still verified at open time (reading each page
// once); corruption is an OpenMapped error, never a lazy fault later. On
// platforms without mmap (or with a non-64-bit little-endian layout) the
// same API transparently degrades to a heap read and/or a copying decode.
type Mapped struct {
	snap *Snapshot
	mp   *mapping
}

// mapping is the file mapping alone: the bytes and how to release them.
type mapping struct {
	data  []byte
	unmap func([]byte) error
	once  sync.Once
	err   error
}

// OpenMapped maps the snapshot at path read-only and decodes it zero-copy.
// The returned Mapped must be kept alive (and not Closed) for as long as
// any part of the snapshot is in use.
func OpenMapped(path string) (*Mapped, error) {
	data, unmap, err := mapFile(path)
	if err != nil {
		return nil, err
	}
	s, err := decode(data, true)
	if err != nil {
		if unmap != nil {
			unmap(data)
		}
		return nil, fmt.Errorf("store: mapped decode of %s: %w", path, err)
	}
	return &Mapped{snap: s, mp: &mapping{data: data, unmap: unmap}}, nil
}

// Snapshot returns the decoded snapshot. Treat it as read-only; its slices
// may alias the mapping.
func (m *Mapped) Snapshot() *Snapshot { return m.snap }

// Mapping returns a closer that releases the mapping exactly as Close
// does but holds nothing else: keeping it does not keep the decoded
// snapshot (its vocabulary strings, hierarchy and other heap-decoded
// sections) reachable. A holder that must defer the unmap past the
// snapshot's own lifetime — a server retiring a replaced generation —
// keeps this instead of the Mapped.
func (m *Mapped) Mapping() io.Closer { return m.mp }

// Size returns the mapped file size in bytes.
func (m *Mapped) Size() int { return len(m.mp.data) }

// Close releases the mapping. After Close, any slice of the snapshot that
// aliased the mapping must no longer be touched — on mmap platforms a
// dereference faults. Close is idempotent and safe for concurrent use.
func (m *Mapped) Close() error { return m.mp.Close() }

func (m *mapping) Close() error {
	m.once.Do(func() {
		if m.unmap != nil {
			m.err = m.unmap(m.data)
		}
		m.data = nil
	})
	return m.err
}
