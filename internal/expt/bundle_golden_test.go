package expt

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The bundle format is a compatibility contract: the fig2 bundles in
// testdata were written by an earlier build (fdwexp -scale 0.002
// -seeds 1: "-shard 1/2", "-shard 2/2 -cells 1", and "-sched
// workers=2"). They must re-encode to the same bytes, the incomplete
// shard must resume to completion, and both sets must merge to the
// unsharded report and CSV.
func TestShardGoldenBundles(t *testing.T) {
	const name = "fig2"
	opt := shardTestOptions()
	golden, err := filepath.Glob(filepath.Join("testdata", name+".*.json"))
	if err != nil || len(golden) != 4 {
		t.Fatalf("golden bundles: %v (err %v), want 4", golden, err)
	}
	for _, p := range golden {
		want, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		m, err := ReadCampaignManifest(bytes.NewReader(want))
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		var got bytes.Buffer
		if err := m.Write(&got); err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s: re-encoded bundle differs:\n--- want\n%s--- got\n%s", p, want, got.Bytes())
		}
	}

	// NewBundle writes the same bytes today: a fresh shard run, and
	// each worker bundle rebuilt from what the loader reads back.
	dir := t.TempDir()
	fresh := filepath.Join(dir, name+".shard1of2.json")
	if _, err := RunShard(opt, ShardRun{Campaign: name, Index: 1, Total: 2, Path: fresh}); err != nil {
		t.Fatal(err)
	}
	sameBytes(t, fresh, filepath.Join("testdata", name+".shard1of2.json"))
	h, err := OpenCampaign(name, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 2; i++ {
		p := filepath.Join("testdata", fmt.Sprintf("%s.worker%dof2.json", name, i))
		slot := ShardSpec{Index: i, Total: 2}
		done, _, err := LoadBundle(h, p, slot, true)
		if err != nil {
			t.Fatal(err)
		}
		rebuilt := filepath.Join(dir, filepath.Base(p))
		if err := NewBundle(h, slot, true, h.CellIDs(), done, nil).WriteFile(rebuilt); err != nil {
			t.Fatal(err)
		}
		sameBytes(t, rebuilt, p)
	}

	partial, err := os.ReadFile(filepath.Join("testdata", name+".shard2of2.json"))
	if err != nil {
		t.Fatal(err)
	}
	resumed := filepath.Join(dir, name+".shard2of2.json")
	if err := os.WriteFile(resumed, partial, 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := RunShard(opt, ShardRun{Campaign: name, Index: 2, Total: 2, Path: resumed, Resume: true})
	if err != nil {
		t.Fatalf("resume of golden incomplete shard: %v", err)
	}
	if !m.Complete() || m.Ledger.DoneCount() <= 1 {
		t.Fatalf("resumed shard has %d of %d cells done", m.Ledger.DoneCount(), len(m.Ledger.Nodes))
	}

	wantRep, wantCSV := runUnsharded(t, name, opt)
	for _, set := range [][]string{
		{filepath.Join("testdata", name+".shard1of2.json"), resumed},
		{filepath.Join("testdata", name+".worker1of2.json"), filepath.Join("testdata", name+".worker2of2.json")},
	} {
		var rep, csv bytes.Buffer
		mopt := opt
		mopt.Out = &rep
		res, err := MergeManifestFiles(mopt, set)
		if err != nil {
			t.Fatalf("merge %v: %v", set, err)
		}
		if err := res.WriteCSV(&csv); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rep.Bytes(), wantRep) || !bytes.Equal(csv.Bytes(), wantCSV) {
			t.Errorf("merge %v: report/CSV differ from the unsharded run", set)
		}
	}
}

// The loader refuses a bundle of another slot, of the other driver,
// or naming a cell the campaign does not have.
func TestShardLoadBundleRejects(t *testing.T) {
	h, err := OpenCampaign("fig2", shardTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	worker := ShardSpec{Index: 1, Total: 2}
	p := filepath.Join("testdata", "fig2.worker1of2.json")
	for _, tc := range []struct {
		slot   ShardSpec
		leased bool
	}{{ShardSpec{Index: 2, Total: 2}, true}, {ShardSpec{Index: 1, Total: 3}, true}, {worker, false}} {
		if _, _, err := LoadBundle(h, p, tc.slot, tc.leased); err == nil || !strings.Contains(err.Error(), "want fig2 slot") {
			t.Errorf("load as slot %s leased=%t: %v", tc.slot, tc.leased, err)
		}
	}
	raw := json.RawMessage(`{"runtime_h":1}`)
	stray := map[string]CellRecord{"s9/q1/seed11": {ID: "s9/q1/seed11", Result: raw, Digest: cellDigest(raw)}}
	bad := filepath.Join(t.TempDir(), "stray.json")
	if err := NewBundle(h, worker, true, []string{"s9/q1/seed11"}, stray, nil).WriteFile(bad); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadBundle(h, bad, worker, true); err == nil || !strings.Contains(err.Error(), "unknown cell") {
		t.Errorf("bundle with a non-canonical cell: %v", err)
	}
}

func sameBytes(t *testing.T, got, want string) {
	t.Helper()
	g, err := os.ReadFile(got)
	if err != nil {
		t.Fatal(err)
	}
	w, err := os.ReadFile(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g, w) {
		t.Errorf("%s differs from %s:\n--- want\n%s--- got\n%s", got, want, w, g)
	}
}
