package colsort

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"colsort/internal/record"
)

// manifestPinLines is the manifest.wal of one job, exactly as PR 12's build
// wrote it: every entry type, a key spec and a memory cap in "begin", an
// ascending and a descending "run". A checkpoint written by any earlier
// build must resume on this one, so these bytes are the format:
// TestManifestFormatPin fails if a line stops decoding to the same state or
// stops re-encoding to the same bytes. (What the other mode of those builds
// wrote — "consumed"/"want" on every run — is decode-only;
// fixedBatchManifest below holds it.)
var manifestPinLines = []string{
	`{"type":"begin","n":1536,"record_size":16,"run_records":256,"fan_in":2,"formation":"replacement-select","alg":1,"alg_name":"threaded","key_spec":{"Offset":4,"Width":8,"Order":1},"max_memory":1048576}`,
	`{"type":"run","run":{"id":1,"path":"/ckpt/ckpt-disk000-g00003.dat","records":432,"frame_bytes":1024,"crcs":[1622404014,1420311273,3024216525,2851315998,1997045692,3957897115,1049784252]}}`,
	`{"type":"run","run":{"id":2,"path":"/ckpt/ckpt-disk001-g00004.dat","records":568,"frame_bytes":1024,"crcs":[2714399257,1689457003,902703162,2590774014,2065676523,3207703307,3620636700,2576902384,636255809]}}`,
	`{"type":"run","run":{"id":3,"path":"/ckpt/ckpt-disk002-g00005.dat","records":536,"descending":true,"frame_bytes":1024,"crcs":[2944054143,1357555252,2174168761,93596843,4088933049,985216075,2659548359,1014124391,4290847087]}}`,
	`{"type":"ingest_done","want":{"Count":1536,"Sum":5407914062027800189,"Mix":3405972867518819415}}`,
	`{"type":"merged","run":{"id":4,"path":"/ckpt/ckpt-disk003-g00006.dat","records":1000,"frame_bytes":1024,"crcs":[3924035181,604633197,3314041905,4262015790,3191472782,3575832540,1864128563,915850510,3946868867,3680641834,2681015624,2914646049,3968667735,763360577,4064271866,2616086514]},"inputs":[1,2]}`,
	`{"type":"done"}`,
}

func TestManifestFormatPin(t *testing.T) {
	pinned := strings.Join(manifestPinLines, "\n") + "\n"

	// Decode: the fold of the pinned log is the state those lines meant.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(pinned), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	b := st.begin
	if b.N != 1536 || b.RecordSize != 16 || b.RunRecords != 256 || b.FanIn != 2 || b.Formation != formationName ||
		Algorithm(b.Alg) != Threaded || b.MaxMemory != 1<<20 || b.KeySpec == nil ||
		*b.KeySpec != (KeySpec{Offset: 4, Width: 8, Order: Descending}) {
		t.Errorf("begin folded to %+v (key spec %+v)", b, b.KeySpec)
	}
	var liveIDs []int
	for _, r := range st.live {
		liveIDs = append(liveIDs, r.ID)
	}
	if !reflect.DeepEqual(liveIDs, []int{3, 4}) {
		t.Errorf("live run ids = %v, want [3 4] (1 and 2 consumed by the merged entry)", liveIDs)
	}
	if r := st.live[0]; !r.Descending || r.Records != 536 || r.FrameBytes != 1024 ||
		r.Path != "/ckpt/ckpt-disk002-g00005.dat" || len(r.CRCs) != 9 || r.CRCs[8] != 4290847087 {
		t.Errorf("run 3 folded to %+v", r)
	}
	want := record.Checksum{Count: 1536, Sum: 5407914062027800189, Mix: 3405972867518819415}
	if !st.ingestDone || st.want != want || st.maxID != 4 || !st.done {
		t.Errorf("fold = ingestDone %v want %+v maxID %d done %v", st.ingestDone, st.want, st.maxID, st.done)
	}

	// Re-encode: the same entries through the real append path are the
	// same bytes.
	out := t.TempDir()
	l, err := openManifestLog(out, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range manifestPinLines {
		var e manifestEntry
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("line %d: %v", i+1, err)
		}
		if err := l.append(e); err != nil {
			t.Fatal(err)
		}
	}
	l.close()
	got, err := os.ReadFile(filepath.Join(out, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != pinned {
		t.Errorf("re-encoded manifest differs from the pinned bytes:\n got %s\nwant %s", got, pinned)
	}
}

// fixedBatchManifest is what PR 12's build logged for a fixed-batch job
// (P=2, MemPerProc=64, 16-byte records, Uniform{Seed: 51}, 4×256 records,
// fan-in 2) up to the moment it was killed at its first merge event, with
// its begin entry naming this build's formation: its runs are ordinary
// ascending runs, so it is a checkpoint this build continues, and the
// fixture the sidecar checks damage.
var fixedBatchManifest = []string{
	`{"type":"begin","n":1024,"record_size":16,"run_records":256,"fan_in":2,"formation":"replacement-select","alg":1,"alg_name":"threaded"}`,
	`{"type":"run","run":{"id":1,"path":"/ckpt/ckpt-disk000-g00005.dat","records":256,"frame_bytes":1024,"crcs":[1160893933,557955388,3770670801,42478674]},"consumed":256,"want":{"Count":256,"Sum":150657351123244877,"Mix":10498265333998259962}}`,
	`{"type":"run","run":{"id":2,"path":"/ckpt/ckpt-disk001-g00014.dat","records":256,"frame_bytes":1024,"crcs":[2779026189,2585021601,3993389118,2826461587]},"consumed":512,"want":{"Count":512,"Sum":9267754758240447532,"Mix":14220258636889188969}}`,
	`{"type":"run","run":{"id":3,"path":"/ckpt/ckpt-disk002-g00023.dat","records":256,"frame_bytes":1024,"crcs":[1240922557,3824438625,1489289456,1946116916]},"consumed":768,"want":{"Count":768,"Sum":10046159279695104041,"Mix":14659790030842237799}}`,
	`{"type":"run","run":{"id":4,"path":"/ckpt/ckpt-disk003-g00032.dat","records":256,"frame_bytes":1024,"crcs":[579457996,2989601150,411353397,1753157727]},"consumed":1024,"want":{"Count":1024,"Sum":11907893119199735009,"Mix":10085675905718907641}}`,
	`{"type":"ingest_done","want":{"Count":1024,"Sum":11907893119199735009,"Mix":10085675905718907641}}`,
}

// legacyCheckpoint materializes in dir the checkpoint those lines describe:
// the manifest (its "/ckpt/" paths re-rooted at dir) and the run files the
// "run" lines name, rebuilt the way that mode made them — run k is the
// sorted k-th 256-record batch of raw. The CRCs in the literal lines hold
// the rebuild to the original bytes when a merge loads it.
func legacyCheckpoint(t *testing.T, dir string, lines []string, raw []byte) (runFiles []string) {
	t.Helper()
	const z, runRecs = 16, 256
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, line := range lines {
		var e manifestEntry
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatal(err)
		}
		if e.Type != "run" {
			continue
		}
		k := len(runFiles)
		path := filepath.Join(dir, filepath.Base(e.Run.Path))
		batch := raw[k*runRecs*z : (k+1)*runRecs*z]
		if err := os.WriteFile(path, refSortBytes(t, batch, z, KeySpec{}), 0o644); err != nil {
			t.Fatal(err)
		}
		runFiles = append(runFiles, path)
	}
	log := strings.ReplaceAll(strings.Join(lines, "\n")+"\n", `"/ckpt/`, `"`+dir+`/`)
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(log), 0o644); err != nil {
		t.Fatal(err)
	}
	return runFiles
}

// legacySorter is the engine shape fixedBatchManifest was written on.
func legacySorter(t *testing.T, scratch string) *Sorter {
	t.Helper()
	s, err := New(Config{Procs: 2, MemPerProc: 64, RecordSize: 16, Dir: scratch})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestResumeLegacyManifest: a checkpoint an older build began as
// "fixed-batch" — that mode is gone, and so is its acceptance — is refused
// with the unknown-formation sentence, and every file of it is left as it
// was.
func TestResumeLegacyManifest(t *testing.T) {
	raw := genRaw(1024, 16, record.Uniform{Seed: 51})
	t.Run("unknown formation", func(t *testing.T) {
		tmp := t.TempDir()
		dir := filepath.Join(tmp, "ckpt")
		lines := append([]string(nil), fixedBatchManifest...)
		lines[0] = strings.Replace(lines[0], formationName, "fixed-batch", 1)
		runFiles := legacyCheckpoint(t, dir, lines, raw)
		before, err := os.ReadFile(filepath.Join(dir, manifestName))
		if err != nil {
			t.Fatal(err)
		}
		_, err = legacySorter(t, filepath.Join(tmp, "scratch")).Sort(context.Background(), FromBytes(raw), Discard(),
			WithMergeFanIn(2), WithCheckpoint(dir))
		if err == nil || !strings.Contains(err.Error(), `unknown formation "fixed-batch"`) {
			t.Fatalf("Sort over the checkpoint: err = %v, want the unknown formation refused", err)
		}
		if after, err := os.ReadFile(filepath.Join(dir, manifestName)); err != nil || !bytes.Equal(after, before) {
			t.Errorf("the refused manifest was touched (read err %v)", err)
		}
		for _, f := range runFiles {
			if _, err := os.Stat(f); err != nil {
				t.Errorf("the refused checkpoint lost a run file: %v", err)
			}
		}
	})
}

// TestResumeRefusesDamagedSidecar: every spilled run is CRC-framed, so a
// manifest run whose frame geometry or CRC sidecar no writer produced is
// refused before the merge reads a byte of it — never merged unverified.
func TestResumeRefusesDamagedSidecar(t *testing.T) {
	raw := genRaw(1024, 16, record.Uniform{Seed: 51})
	for _, tc := range []struct{ name, old, new string }{
		{"no frame", `"frame_bytes":1024,"crcs":[1160893933,557955388,3770670801,42478674]`, `"frame_bytes":0,"crcs":null`},
		{"sidecar short a frame", `,42478674]`, `]`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tmp := t.TempDir()
			dir := filepath.Join(tmp, "ckpt")
			lines := append([]string(nil), fixedBatchManifest...)
			lines[1] = strings.Replace(lines[1], tc.old, tc.new, 1)
			legacyCheckpoint(t, dir, lines, raw)
			_, err := legacySorter(t, filepath.Join(tmp, "scratch")).Sort(context.Background(), FromBytes(raw), Discard(),
				WithMergeFanIn(2), WithCheckpoint(dir))
			if err == nil || !strings.Contains(err.Error(), "durable run 1:") {
				t.Fatalf("Sort over the checkpoint: err = %v, want durable run 1 refused", err)
			}
		})
	}
}
