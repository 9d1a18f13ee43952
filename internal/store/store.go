package store

import (
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"sort"

	"lesm/internal/core"
	"lesm/internal/par"
	"lesm/internal/tpfg"
)

// Magic identifies a lesm snapshot file.
const Magic = "LESMSNAP"

// Version is the current format version. Decode accepts exactly this
// version; the header keeps older readers from misparsing newer files.
//
// Version history:
//
//	1: magic + section table + CRC32 payloads (PR 3).
//	2: alignment for zero-copy decode — section payloads start 8-aligned
//	   and payload strings are zero-padded to 8-byte boundaries, so every
//	   ints/floats array sits 8-aligned in the file and OpenMapped can
//	   serve it straight from mapped bytes. v1 files are rejected (refit
//	   and re-save); v2 files remain offset-driven, so the padding is
//	   invisible to the section table.
const Version = 2

// Section names, in the canonical file order.
const (
	SecVocab   = "vocab"
	SecCorpus  = "corpus"
	SecTopics  = "topics"
	SecFoldIn  = "foldin"
	SecHier    = "hier"
	SecRoles   = "roles"
	SecAdvisor = "advisor"
)

// sectionOrder fixes the on-disk order of present sections; determinism of
// the whole file depends on it.
var sectionOrder = []string{SecVocab, SecCorpus, SecTopics, SecFoldIn, SecHier, SecRoles, SecAdvisor}

// Topics is a flat topic-word model plus the sufficient statistics fold-in
// inference needs. Phi alone supports serving top-words. When NKV and NK
// (token count tables from a Gibbs fit) are both present, fold-in always
// samples against their exact smoothed distributions
// (NKV[k][w]+Beta)/(NK[k]+V*Beta); Phi's rows stand in for those only
// when they equal them bit for bit, as a Gibbs fit's Phi does (see
// Snapshot.FoldInModel). Models from count-free fitters (STROD) leave
// NKV/NK nil and fold-in samples against Phi directly.
type Topics struct {
	K, V   int
	Weight []float64
	Phi    [][]float64
	Alpha  float64
	Beta   float64
	NKV    [][]int
	NK     []int
}

// CorpusMeta is the corpus-level metadata a server needs without shipping
// the documents themselves.
type CorpusMeta struct {
	NumDocs     int
	TotalTokens int
	WordCounts  []int
}

// TopicPhrases pairs a topic path with its ranked phrase list — the role
// analyzer's per-topic view, stored in hierarchy pre-order.
type TopicPhrases struct {
	Path    string
	Phrases []core.RankedPhrase
}

// Advisor is the persisted form of a TPFG inference result: the candidate
// network plus the normalized per-author rank vectors.
type Advisor struct {
	Net  *tpfg.Network
	Rank [][]float64
}

// Snapshot aggregates every persistable artifact. All fields are optional;
// absent fields simply produce no section.
type Snapshot struct {
	Vocab       []string
	Corpus      *CorpusMeta
	Topics      *Topics
	FoldIn      *FoldIn
	Hierarchy   *core.Hierarchy
	RolePhrases []TopicPhrases
	Advisor     *Advisor
}

// Sections lists the names of the sections this snapshot would encode, in
// file order.
func (s *Snapshot) Sections() []string {
	var out []string
	for _, name := range sectionOrder {
		if s.has(name) {
			out = append(out, name)
		}
	}
	return out
}

func (s *Snapshot) has(name string) bool {
	switch name {
	case SecVocab:
		return s.Vocab != nil
	case SecCorpus:
		return s.Corpus != nil
	case SecTopics:
		return s.Topics != nil
	case SecFoldIn:
		return s.FoldIn != nil
	case SecHier:
		return s.Hierarchy != nil
	case SecRoles:
		return s.RolePhrases != nil
	case SecAdvisor:
		return s.Advisor != nil
	}
	return false
}

// Encode serializes the snapshot into the self-describing binary format.
// The output is a pure function of the snapshot value.
func Encode(s *Snapshot) ([]byte, error) {
	if s == nil {
		return nil, errors.New("store: nil snapshot")
	}
	names := s.Sections()
	payloads := make([][]byte, len(names))
	for i, name := range names {
		var e enc
		switch name {
		case SecVocab:
			encodeVocab(&e, s.Vocab)
		case SecCorpus:
			encodeCorpus(&e, s.Corpus)
		case SecTopics:
			encodeTopics(&e, s.Topics)
		case SecFoldIn:
			encodeFoldIn(&e, s.FoldIn)
		case SecHier:
			encodeHierarchy(&e, s.Hierarchy)
		case SecRoles:
			encodeRoles(&e, s.RolePhrases)
		case SecAdvisor:
			encodeAdvisor(&e, s.Advisor)
		}
		payloads[i] = e.buf
	}

	headerSize := len(Magic) + 4 + 4
	for _, name := range names {
		headerSize += 4 + len(name) + 8 + 8 + 4
	}
	// Section payloads start 8-aligned (relative to the file start, which
	// both the heap read path and mmap leave page-aligned), so the arrays
	// inside them are zero-copy servable. Padding lives between the header
	// and the first payload, and between payloads; the offset-driven
	// decoder never reads it. The file is sized up front, so appending
	// never copies it.
	size := headerSize + pad8(headerSize)
	for _, p := range payloads {
		size += len(p) + pad8(len(p))
	}
	e := enc{buf: make([]byte, 0, size)}
	e.buf = append(e.buf, Magic...)
	e.u32(Version)
	e.u32(uint32(len(names)))
	offset := uint64(headerSize + pad8(headerSize))
	for i, name := range names {
		e.rawStr(name)
		e.u64(offset)
		e.u64(uint64(len(payloads[i])))
		e.u32(crc32.ChecksumIEEE(payloads[i]))
		offset += uint64(len(payloads[i]) + pad8(len(payloads[i])))
	}
	e.buf = append(e.buf, zeros[:pad8(len(e.buf))]...)
	for _, p := range payloads {
		e.buf = append(e.buf, p...)
		e.buf = append(e.buf, zeros[:pad8(len(p))]...)
	}
	return e.buf, nil
}

// Decode parses and CRC-verifies a snapshot. Sections with unknown names
// are skipped so the format can grow without breaking old readers. Every
// decoded value is heap-owned; for the aliasing fast path see OpenMapped.
func Decode(b []byte) (*Snapshot, error) {
	return decode(b, false)
}

// decode is the shared decoder. With zeroCopy set, the big numeric arrays
// of the snapshot ([]int / []float64 payloads) alias b wherever alignment
// and platform allow, so the caller must keep b alive and unmodified for
// the snapshot's lifetime and must treat the snapshot as read-only.
func decode(b []byte, zeroCopy bool) (*Snapshot, error) {
	if len(b) < len(Magic)+8 || string(b[:len(Magic)]) != Magic {
		return nil, errors.New("store: not a lesm snapshot (bad magic)")
	}
	d := &dec{buf: b, off: len(Magic)}
	if v := d.u32("version"); v != Version {
		return nil, fmt.Errorf("store: unsupported format version %d (want %d)", v, Version)
	}
	count := d.u32("section count")
	// A table entry is at least 24 bytes (empty name), so a count beyond
	// remaining/24 is corrupt; bounding it here keeps a corrupt header from
	// driving a huge pre-allocation.
	if count > uint32((len(b)-d.off)/24) {
		return nil, fmt.Errorf("store: corrupt section count %d", count)
	}
	type entry struct {
		name        string
		off, length uint64
		crc         uint32
	}
	entries := make([]entry, 0, count)
	for i := uint32(0); i < count; i++ {
		var en entry
		en.name = d.rawStr("section name")
		en.off = d.u64("section offset")
		en.length = d.u64("section length")
		en.crc = d.u32("section crc")
		entries = append(entries, en)
	}
	if d.err != nil {
		return nil, d.err
	}
	inBounds := func(en entry) bool {
		return en.off <= uint64(len(b)) && en.length <= uint64(len(b))-en.off
	}
	// The checksums read every byte of the file, so they run on the pool,
	// one section per task. The checks below still go in table order, so a
	// file with several faults reports the first, as a serial pass would.
	crcs := make([]uint32, len(entries))
	par.ForChunksN(par.Opts{}, len(entries), len(entries), func(i, _, _ int) {
		if en := entries[i]; inBounds(en) {
			crcs[i] = crc32.ChecksumIEEE(b[en.off : en.off+en.length])
		}
	})
	s := &Snapshot{}
	for i, en := range entries {
		if !inBounds(en) {
			return nil, fmt.Errorf("store: section %q out of bounds", en.name)
		}
		if got := crcs[i]; got != en.crc {
			return nil, fmt.Errorf("store: section %q CRC mismatch (file %08x, computed %08x)", en.name, en.crc, got)
		}
		pd := &dec{buf: b[en.off : en.off+en.length], zc: zeroCopy}
		switch en.name {
		case SecVocab:
			s.Vocab = decodeVocab(pd)
		case SecCorpus:
			s.Corpus = decodeCorpus(pd)
		case SecTopics:
			s.Topics = decodeTopics(pd)
		case SecFoldIn:
			s.FoldIn = decodeFoldIn(pd)
		case SecHier:
			s.Hierarchy = decodeHierarchy(pd)
		case SecRoles:
			s.RolePhrases = decodeRoles(pd)
		case SecAdvisor:
			s.Advisor = decodeAdvisor(pd)
		default:
			continue // unknown section: forward compatibility
		}
		if pd.err != nil {
			return nil, fmt.Errorf("store: section %q: %w", en.name, pd.err)
		}
	}
	return s, nil
}

// Write encodes the snapshot and writes it to path atomically: temp
// file, fsync, rename, parent-directory fsync (see writeAtomic for the
// durability argument and failpoint.go for the injected-failure proof
// that no failure leaves a corrupt file at path).
func Write(path string, s *Snapshot) error {
	b, err := Encode(s)
	if err != nil {
		return err
	}
	return writeAtomic(path, b)
}

// Read loads and decodes the snapshot at path.
func Read(path string) (*Snapshot, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(b)
}

// --- vocab ---

func encodeVocab(e *enc, words []string) {
	e.u64(uint64(len(words)))
	for _, w := range words {
		e.str(w)
	}
}

func decodeVocab(d *dec) []string {
	n := d.length(4, "vocab")
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, d.str("vocab word"))
	}
	return out
}

// --- corpus metadata ---

func encodeCorpus(e *enc, c *CorpusMeta) {
	e.i64(int64(c.NumDocs))
	e.i64(int64(c.TotalTokens))
	e.ints(c.WordCounts)
}

func decodeCorpus(d *dec) *CorpusMeta {
	return &CorpusMeta{
		NumDocs:     int(d.i64("corpus numDocs")),
		TotalTokens: int(d.i64("corpus totalTokens")),
		WordCounts:  d.ints("corpus wordCounts"),
	}
}

// --- topics ---

func encodeTopics(e *enc, t *Topics) {
	// The K·V tables dominate a snapshot; sizing the payload up front
	// spares the append growth from copying them several times over.
	n := 4*8 + 8 + 8*len(t.Weight) + 8 + 8 + 8 + 8*len(t.NK)
	for _, row := range t.Phi {
		n += 8 + 8*len(row)
	}
	for _, row := range t.NKV {
		n += 8 + 8*len(row)
	}
	e.grow(n)
	e.i64(int64(t.K))
	e.i64(int64(t.V))
	e.f64(t.Alpha)
	e.f64(t.Beta)
	e.floats(t.Weight)
	e.u64(uint64(len(t.Phi)))
	for _, row := range t.Phi {
		e.floats(row)
	}
	e.u64(uint64(len(t.NKV)))
	for _, row := range t.NKV {
		e.ints(row)
	}
	e.ints(t.NK)
}

func decodeTopics(d *dec) *Topics {
	t := &Topics{
		K:      int(d.i64("topics K")),
		V:      int(d.i64("topics V")),
		Alpha:  d.f64("topics alpha"),
		Beta:   d.f64("topics beta"),
		Weight: d.floats("topics weight"),
	}
	nPhi := d.length(8, "topics phi")
	if nPhi > 0 {
		t.Phi = make([][]float64, nPhi)
		for i := range t.Phi {
			t.Phi[i] = d.floats("topics phi row")
		}
	}
	nNKV := d.length(8, "topics nkv")
	if nNKV > 0 {
		t.NKV = make([][]int, nNKV)
		for i := range t.NKV {
			t.NKV[i] = d.ints("topics nkv row")
		}
	}
	t.NK = d.ints("topics nk")
	return t
}

// --- hierarchy ---

func sortedTypeIDs[T any](m map[core.TypeID]T) []core.TypeID {
	ids := make([]core.TypeID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	return ids
}

func encodePhrases(e *enc, ps []core.RankedPhrase) {
	e.u64(uint64(len(ps)))
	for _, p := range ps {
		e.ints(p.Words)
		e.str(p.Display)
		e.f64(p.Score)
	}
}

func decodePhrases(d *dec) []core.RankedPhrase {
	n := d.length(8+4+8, "phrases")
	if n == 0 {
		return nil
	}
	out := make([]core.RankedPhrase, n)
	for i := range out {
		out[i].Words = d.ints("phrase words")
		out[i].Display = d.str("phrase display")
		out[i].Score = d.f64("phrase score")
	}
	return out
}

func encodeNode(e *enc, n *core.TopicNode) {
	e.str(n.Path)
	e.i64(int64(n.Level))
	e.f64(n.Rho)
	phiIDs := sortedTypeIDs(n.Phi)
	e.u64(uint64(len(phiIDs)))
	for _, id := range phiIDs {
		e.i64(int64(id))
		e.floats(n.Phi[id])
	}
	encodePhrases(e, n.Phrases)
	entIDs := sortedTypeIDs(n.Entities)
	e.u64(uint64(len(entIDs)))
	for _, id := range entIDs {
		e.i64(int64(id))
		es := n.Entities[id]
		e.u64(uint64(len(es)))
		for _, en := range es {
			e.i64(int64(en.ID))
			e.str(en.Display)
			e.f64(en.Score)
		}
	}
	e.u64(uint64(len(n.Children)))
	for _, c := range n.Children {
		encodeNode(e, c)
	}
}

// maxHierDepth bounds decodeNode's recursion. Real hierarchies are a
// handful of levels deep; without the bound, a crafted chain of
// single-child nodes (CRC-valid — the checksum covers bytes, not shape)
// would drive one stack frame per level and kill the process with an
// unrecoverable stack overflow instead of a returned error.
const maxHierDepth = 10000

// decodeNode rebuilds one node. Children are attached through AddChild so
// the unexported parent links are restored; the stored Path/Level then
// overwrite the derived ones (they agree for any tree AddChild built).
func decodeNode(d *dec, parent *core.TopicNode, depth int) *core.TopicNode {
	if depth > maxHierDepth {
		d.fail("hierarchy nesting (depth limit)")
		return nil
	}
	var n *core.TopicNode
	if parent == nil {
		n = &core.TopicNode{Phi: map[core.TypeID][]float64{}, Entities: map[core.TypeID][]core.RankedEntity{}}
	} else {
		n = parent.AddChild()
	}
	n.Path = d.str("node path")
	n.Level = int(d.i64("node level"))
	n.Rho = d.f64("node rho")
	nPhi := d.length(16, "node phi")
	for i := 0; i < nPhi; i++ {
		id := core.TypeID(d.i64("node phi type"))
		n.Phi[id] = d.floats("node phi row")
	}
	n.Phrases = decodePhrases(d)
	nEnt := d.length(16, "node entities")
	for i := 0; i < nEnt; i++ {
		id := core.TypeID(d.i64("node entity type"))
		m := d.length(8+4+8, "node entity list")
		es := make([]core.RankedEntity, m)
		for j := range es {
			es[j].ID = int(d.i64("entity id"))
			es[j].Display = d.str("entity display")
			es[j].Score = d.f64("entity score")
		}
		n.Entities[id] = es
	}
	nc := d.length(1, "node children")
	for i := 0; i < nc; i++ {
		if d.err != nil {
			break
		}
		decodeNode(d, n, depth+1)
	}
	return n
}

func encodeHierarchy(e *enc, h *core.Hierarchy) {
	ids := sortedTypeIDs(h.TypeNames)
	e.u64(uint64(len(ids)))
	for _, id := range ids {
		e.i64(int64(id))
		e.str(h.TypeNames[id])
	}
	encodeNode(e, h.Root)
}

func decodeHierarchy(d *dec) *core.Hierarchy {
	h := &core.Hierarchy{TypeNames: map[core.TypeID]string{}}
	n := d.length(12, "hierarchy type names")
	for i := 0; i < n; i++ {
		id := core.TypeID(d.i64("type id"))
		h.TypeNames[id] = d.str("type name")
	}
	h.Root = decodeNode(d, nil, 0)
	return h
}

// --- role phrases ---

func encodeRoles(e *enc, rp []TopicPhrases) {
	e.u64(uint64(len(rp)))
	for _, tp := range rp {
		e.str(tp.Path)
		encodePhrases(e, tp.Phrases)
	}
}

func decodeRoles(d *dec) []TopicPhrases {
	n := d.length(4+8, "role phrases")
	out := make([]TopicPhrases, 0, n)
	for i := 0; i < n; i++ {
		var tp TopicPhrases
		tp.Path = d.str("role path")
		tp.Phrases = decodePhrases(d)
		out = append(out, tp)
	}
	return out
}

// --- advisor ---

func encodeAdvisor(e *enc, a *Advisor) {
	e.i64(int64(a.Net.NumAuthors))
	e.ints(a.Net.First)
	e.u64(uint64(len(a.Net.Cands)))
	for _, cs := range a.Net.Cands {
		e.u64(uint64(len(cs)))
		for _, c := range cs {
			e.i64(int64(c.Advisor))
			e.i64(int64(c.Start))
			e.i64(int64(c.End))
			e.f64(c.Local)
		}
	}
	e.u64(uint64(len(a.Rank)))
	for _, r := range a.Rank {
		e.floats(r)
	}
}

func decodeAdvisor(d *dec) *Advisor {
	a := &Advisor{Net: &tpfg.Network{}}
	a.Net.NumAuthors = int(d.i64("advisor numAuthors"))
	a.Net.First = d.ints("advisor first")
	n := d.length(8, "advisor cands")
	if n > 0 {
		a.Net.Cands = make([][]tpfg.Candidate, n)
		for i := range a.Net.Cands {
			m := d.length(32, "advisor cand list")
			if m == 0 {
				continue
			}
			cs := make([]tpfg.Candidate, m)
			for j := range cs {
				cs[j].Advisor = int(d.i64("cand advisor"))
				cs[j].Start = int(d.i64("cand start"))
				cs[j].End = int(d.i64("cand end"))
				cs[j].Local = d.f64("cand local")
			}
			a.Net.Cands[i] = cs
		}
	}
	nr := d.length(8, "advisor rank")
	if nr > 0 {
		a.Rank = make([][]float64, nr)
		for i := range a.Rank {
			a.Rank[i] = d.floats("advisor rank row")
		}
	}
	return a
}
