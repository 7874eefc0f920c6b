package expt

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"

	"fdw/internal/core/atomicfile"
	"fdw/internal/dagman"
	"fdw/internal/obs"
	"fdw/internal/recovery"
	"fdw/internal/sim"
)

// A CampaignManifest is one shard's output bundle: which cells of a
// campaign the shard owns, which are done, their JSON-encoded results
// with integrity digests, sim-clock provenance, and an optional
// embedded metrics snapshot. It reuses the dagman rescue manifest as
// its completion ledger — checkpoint/resume of a sharded campaign is
// the same mechanism as a DAG-level rescue, one layer up.
//
// Manifests are written as compact JSON: cell results are
// json.RawMessage payloads whose bytes must survive re-encoding
// unchanged for the digests to stay valid, and Go's encoder passes
// compact RawMessage bytes through verbatim.
type CampaignManifest struct {
	// Format is the manifest schema version (CampaignManifestFormat).
	Format int `json:"format"`
	// Campaign names the sharded experiment (fig2, fig3, fig5, fig6,
	// chaos).
	Campaign string `json:"campaign"`
	// Shard is this bundle's slot in the partition. For leased bundles
	// (see Leased) Index/Total identify the worker in its fleet instead
	// of a hash-partition slot.
	Shard ShardSpec `json:"shard"`
	// Leased marks a scheduler worker bundle: cells were assigned by
	// coordinator leases rather than the static FNV hash partition, so
	// any worker may own any cell. Validation skips the hash-ownership
	// check, the ledger lists only completed cells, and incomplete
	// worker bundles still merge (DESIGN.md §13, §16).
	Leased bool `json:"leased,omitempty"`
	// Fingerprint pins the Options the shard ran under; a merge or
	// resume with different options must fail loudly rather than mix
	// incompatible results.
	Fingerprint string `json:"fingerprint"`
	// Ledger is the cell-completion record: one dagman manifest node
	// per owned cell (per completed cell when Leased), in canonical
	// cell order.
	Ledger dagman.Manifest `json:"ledger"`
	// Cells holds the completed cells' results, in canonical order.
	Cells []CellRecord `json:"cells"`
	// SimMax is the largest per-cell final sim-clock reading — the
	// shard's simulated-time provenance.
	SimMax sim.Time `json:"sim_max"`
	// Metrics is the shard's obs snapshot rollup, when metrics were on.
	Metrics *obs.Snapshot `json:"metrics,omitempty"`
}

// ShardSpec identifies shard Index of Total (1-based, like -shard 2/4).
type ShardSpec struct {
	Index int `json:"index"`
	Total int `json:"total"`
}

func (s ShardSpec) String() string { return fmt.Sprintf("%d/%d", s.Index, s.Total) }

func (s ShardSpec) validate() error {
	if s.Total < 1 || s.Index < 1 || s.Index > s.Total {
		return fmt.Errorf("expt: shard %d/%d out of range", s.Index, s.Total)
	}
	return nil
}

// CellRecord is one completed cell's stored result.
type CellRecord struct {
	ID string `json:"id"`
	// Result is the cell result exactly as json.Marshal produced it;
	// Digest is the FNV-1a64 of those bytes.
	Result json.RawMessage `json:"result"`
	Digest string          `json:"digest"`
	// SimEnd is the cell simulation's final kernel clock.
	SimEnd sim.Time `json:"sim_end"`
}

// CampaignManifestFormat is the current campaign-manifest schema
// version.
const CampaignManifestFormat = 1

// shardOf deterministically assigns a cell to a 1-based shard index:
// FNV-1a64 over "campaign/cellID", reduced mod Total. The hash depends
// only on the identity strings — never on worker count, enumeration
// order, or process — so every shard of a partition computes the same
// assignment independently.
func shardOf(campaign, cellID string, total int) int {
	h := fnv.New64a()
	h.Write([]byte(campaign))
	h.Write([]byte{'/'})
	h.Write([]byte(cellID))
	return int(h.Sum64()%uint64(total)) + 1
}

// ShardCells partitions a campaign's canonical cell list, returning
// the ids owned by shard index/total in canonical order.
func ShardCells(campaign string, ids []string, index, total int) []string {
	var owned []string
	for _, id := range ids {
		if shardOf(campaign, id, total) == index {
			owned = append(owned, id)
		}
	}
	return owned
}

// cellDigest is the integrity digest of a stored result payload.
func cellDigest(b []byte) string {
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

// Fingerprint condenses every result-affecting Options field (plus the
// campaign name) into a hash. Workers, Out, and Obs are excluded: they
// change neither cell results nor final bytes.
func (o Options) Fingerprint(campaign string) (string, error) {
	canon := struct {
		Campaign string           `json:"campaign"`
		Scale    float64          `json:"scale"`
		Seeds    []uint64         `json:"seeds"`
		Horizon  sim.Time         `json:"horizon"`
		Pool     any              `json:"pool"`
		Recovery *recovery.Config `json:"recovery"`
	}{campaign, o.Scale, o.Seeds, o.Horizon, o.Pool, o.Recovery}
	b, err := json.Marshal(canon)
	if err != nil {
		return "", fmt.Errorf("expt: fingerprint: %w", err)
	}
	return cellDigest(b), nil
}

// Write renders the manifest as compact JSON.
func (m *CampaignManifest) Write(w io.Writer) error {
	if err := m.Validate(); err != nil {
		return err
	}
	b, err := json.Marshal(m)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// WriteFile atomically replaces path with the manifest (temp file +
// fsync + rename via atomicfile), so a kill mid-checkpoint leaves the
// previous complete manifest in place rather than a truncated one.
func (m *CampaignManifest) WriteFile(path string) error {
	return atomicfile.WriteFile(path, m.Write)
}

// ReadCampaignManifest parses and validates a manifest written by
// Write.
func ReadCampaignManifest(r io.Reader) (*CampaignManifest, error) {
	var m CampaignManifest
	if err := json.NewDecoder(r).Decode(&m); err != nil {
		return nil, fmt.Errorf("expt: bad campaign manifest: %w", err)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

// ReadCampaignManifestFile reads one manifest bundle from disk.
func ReadCampaignManifestFile(path string) (*CampaignManifest, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	m, err := ReadCampaignManifest(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

// Validate checks the manifest's internal invariants: schema version,
// shard spec, ledger well-formedness, ledger/cell agreement (exactly
// the done ledger nodes carry results, in the same order), shard
// ownership of every cell, and per-cell digest integrity.
func (m *CampaignManifest) Validate() error {
	if m.Format != CampaignManifestFormat {
		return fmt.Errorf("expt: campaign manifest format %d, want %d", m.Format, CampaignManifestFormat)
	}
	if m.Campaign == "" {
		return fmt.Errorf("expt: campaign manifest has no campaign name")
	}
	if err := m.Shard.validate(); err != nil {
		return err
	}
	if m.Fingerprint == "" {
		return fmt.Errorf("expt: campaign manifest has no options fingerprint")
	}
	if err := m.Ledger.Validate(); err != nil {
		return err
	}
	var done []string
	for _, n := range m.Ledger.Nodes {
		if !m.Leased && shardOf(m.Campaign, n.Name, m.Shard.Total) != m.Shard.Index {
			return fmt.Errorf("expt: cell %q does not belong to shard %s of %s", n.Name, m.Shard, m.Campaign)
		}
		if n.Done {
			done = append(done, n.Name)
		}
	}
	if len(done) != len(m.Cells) {
		return fmt.Errorf("expt: ledger marks %d cells done but %d results stored", len(done), len(m.Cells))
	}
	for i, c := range m.Cells {
		if c.ID != done[i] {
			return fmt.Errorf("expt: cell result %d is %q, ledger order says %q", i, c.ID, done[i])
		}
		if got := cellDigest(c.Result); got != c.Digest {
			return fmt.Errorf("expt: cell %q result digest %s does not match stored %s (corrupt manifest?)", c.ID, got, c.Digest)
		}
	}
	return nil
}

// Complete reports whether every ledger cell is done.
func (m *CampaignManifest) Complete() bool {
	return m.Ledger.DoneCount() == len(m.Ledger.Nodes)
}

// The bundle protocol (DESIGN.md §13). Both campaign drivers — the
// hash-partitioned shard runner (RunShard) and the leased scheduler
// (internal/sched) — write bundles with NewBundle, resume from them
// with LoadBundle, and hand them to MergeManifests, so bundle
// semantics are defined here and nowhere else.

// A CampaignRef identifies the campaign run a bundle belongs to: its
// name, its options fingerprint, and its canonical cell ids.
// CampaignHandle implements it, as does every scheduler Source.
type CampaignRef interface {
	Name() string
	Fingerprint() string
	CellIDs() []string
}

// NewBundle builds the manifest for one slot of a campaign run. ledger
// lists the slot's cells in canonical order and done holds the
// completed records. A hash shard's ledger records every owned cell,
// done or not, so a resume knows what remains; a leased worker may be
// handed any cell, so its ledger records only its completions.
func NewBundle(c CampaignRef, slot ShardSpec, leased bool, ledger []string, done map[string]CellRecord, metrics *obs.Snapshot) *CampaignManifest {
	dag := fmt.Sprintf("%s-shard%s", c.Name(), slot)
	if leased {
		dag = fmt.Sprintf("%s-worker%dof%d", c.Name(), slot.Index, slot.Total)
	}
	m := &CampaignManifest{
		Format:      CampaignManifestFormat,
		Campaign:    c.Name(),
		Shard:       slot,
		Leased:      leased,
		Fingerprint: c.Fingerprint(),
		Ledger:      dagman.Manifest{Format: dagman.ManifestFormat, DAG: dag},
		Metrics:     metrics,
	}
	for _, id := range ledger {
		rec, ok := done[id]
		if !ok && leased {
			continue
		}
		m.Ledger.Nodes = append(m.Ledger.Nodes, dagman.ManifestNode{Name: id, Done: ok})
		if ok {
			m.Cells = append(m.Cells, rec)
			m.SimMax = max(m.SimMax, rec.SimEnd)
		}
	}
	return m
}

// LoadBundle reads the bundle at path for a resume and checks that it
// belongs to c's run at slot: same campaign, slot, leased flag and
// options fingerprint, and every ledger cell a canonical cell id. It
// returns the stored records by cell id and the embedded metrics. A
// missing file yields an error wrapping os.ErrNotExist.
func LoadBundle(c CampaignRef, path string, slot ShardSpec, leased bool) (map[string]CellRecord, *obs.Snapshot, error) {
	m, err := ReadCampaignManifestFile(path)
	if err != nil {
		return nil, nil, err
	}
	if m.Campaign != c.Name() || m.Shard != slot || m.Leased != leased {
		return nil, nil, fmt.Errorf("expt: bundle %s is %s slot %s (leased=%t), want %s slot %s (leased=%t)",
			path, m.Campaign, m.Shard, m.Leased, c.Name(), slot, leased)
	}
	if m.Fingerprint != c.Fingerprint() {
		return nil, nil, fmt.Errorf("expt: bundle %s fingerprint %s does not match options fingerprint %s (different scale/seeds?)",
			path, m.Fingerprint, c.Fingerprint())
	}
	canonical := make(map[string]bool, len(c.CellIDs()))
	for _, id := range c.CellIDs() {
		canonical[id] = true
	}
	for _, n := range m.Ledger.Nodes {
		if !canonical[n.Name] {
			return nil, nil, fmt.Errorf("expt: bundle %s has unknown cell %q", path, n.Name)
		}
	}
	done := make(map[string]CellRecord, len(m.Cells))
	for _, rec := range m.Cells {
		done[rec.ID] = rec
	}
	return done, m.Metrics, nil
}

// MergeResult is a verified, finalized campaign bundle set.
type MergeResult struct {
	Campaign string
	// CSVName is the conventional CSV file name for this campaign.
	CSVName string
	// Rows is the finalize output, same dynamic type as the unsharded
	// entry point returns ([]Fig2Row, []Fig5Cell, ...).
	Rows any
	// Metrics is the cross-slot rollup, nil when no bundle embedded a
	// snapshot.
	Metrics *obs.Snapshot
	c       *campaign
}

// WriteCSV renders the merged rows as the campaign's CSV.
func (r *MergeResult) WriteCSV(w io.Writer) error { return r.c.writeCSV(w, r.Rows) }

// MergeManifests verifies a bundle set and finalizes it, printing the
// report to opt.Out. Every bundle must validate and share one
// campaign, options fingerprint, partition width and leased flag; a
// hash shard bundle must also be complete. The stored records are
// unioned, a cell stored twice must agree by digest, and the union
// must cover every canonical cell: a hash cell whose owning shard was
// not supplied is an error, any other gap is ErrIncomplete. Each
// slot's metrics count once. Finalize is the code the unsharded run
// uses, and Go's JSON float round-trip is exact, so the report and CSV
// are byte-identical to an unsharded run.
func MergeManifests(opt Options, manifests []*CampaignManifest) (*MergeResult, error) {
	if len(manifests) == 0 {
		return nil, fmt.Errorf("expt: merge: no manifests")
	}
	first := manifests[0]
	h, err := OpenCampaign(first.Campaign, opt)
	if err != nil {
		return nil, err
	}
	slots := map[int]bool{}
	var snaps []*obs.Snapshot
	for _, m := range manifests {
		if err := m.Validate(); err != nil {
			return nil, err
		}
		switch {
		case m.Campaign != first.Campaign:
			return nil, fmt.Errorf("expt: merge: mixed campaigns %s and %s", first.Campaign, m.Campaign)
		case m.Leased != first.Leased:
			return nil, fmt.Errorf("expt: merge: cannot mix leased worker bundles and hash-partitioned shard bundles")
		case m.Shard.Total != first.Shard.Total:
			return nil, fmt.Errorf("expt: merge: mixed partitions /%d and /%d", first.Shard.Total, m.Shard.Total)
		case m.Fingerprint != h.fp:
			return nil, fmt.Errorf("expt: merge: shard %s fingerprint %s does not match options fingerprint %s",
				m.Shard, m.Fingerprint, h.fp)
		case !m.Leased && !m.Complete():
			return nil, fmt.Errorf("%w: shard %s has %d of %d cells (resume it before merging)",
				ErrIncomplete, m.Shard, m.Ledger.DoneCount(), len(m.Ledger.Nodes))
		}
		if !slots[m.Shard.Index] {
			slots[m.Shard.Index] = true
			snaps = append(snaps, m.Metrics)
		}
	}
	records, conflicts := unionCells(manifests)
	if len(conflicts) > 0 {
		return nil, conflicts[0]
	}
	for _, id := range h.ids {
		if _, ok := records[id]; ok {
			continue
		}
		if owner := shardOf(h.Name(), id, first.Shard.Total); !first.Leased && !slots[owner] {
			return nil, fmt.Errorf("expt: merge: cell %q belongs to shard %d/%d, which was not supplied", id, owner, first.Shard.Total)
		}
		return nil, fmt.Errorf("%w: cell %q is in no bundle (%d of %d cells done)", ErrIncomplete, id, len(records), len(h.ids))
	}
	res, err := h.Finalize(nil, records)
	if err != nil {
		return nil, err
	}
	for _, s := range snaps {
		if s != nil {
			res.Metrics = obs.MergeSnapshots(snaps...)
			break
		}
	}
	return res, nil
}

// MergeManifestFiles is MergeManifests over manifest bundle paths.
func MergeManifestFiles(opt Options, paths []string) (*MergeResult, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("expt: merge: no manifest files")
	}
	manifests := make([]*CampaignManifest, len(paths))
	for i, p := range paths {
		m, err := ReadCampaignManifestFile(p)
		if err != nil {
			return nil, err
		}
		manifests[i] = m
	}
	return MergeManifests(opt, manifests)
}

// A cellConflict is a cell stored by two bundles with different
// digests — a determinism violation, never settled last-write-wins.
type cellConflict struct {
	id           string
	digA, digB   string
	slotA, slotB ShardSpec
}

func (c cellConflict) Error() string {
	return fmt.Sprintf("expt: merge: cell %q stored with conflicting digests: %s (slot %s) vs %s (slot %s) — refusing last-write-wins",
		c.id, c.digA, c.slotA, c.digB, c.slotB)
}

// unionCells collects every stored record across bundles, in bundle
// order, keeping the first copy of each cell. It returns the first
// conflict for each cell whose later copies disagree by digest, in the
// order the conflicts are found.
func unionCells(manifests []*CampaignManifest) (map[string]CellRecord, []cellConflict) {
	records := map[string]CellRecord{}
	from := map[string]ShardSpec{}
	var conflicts []cellConflict
	conflicted := map[string]bool{}
	for _, m := range manifests {
		for _, rec := range m.Cells {
			prev, ok := records[rec.ID]
			if !ok {
				records[rec.ID] = rec
				from[rec.ID] = m.Shard
				continue
			}
			if prev.Digest != rec.Digest && !conflicted[rec.ID] {
				conflicted[rec.ID] = true
				conflicts = append(conflicts, cellConflict{rec.ID, prev.Digest, rec.Digest, from[rec.ID], m.Shard})
			}
		}
	}
	return records, conflicts
}
