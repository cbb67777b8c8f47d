package colsort

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"colsort/internal/record"
)

// manifestPinLines holds one manifest.wal line of every entry type, exactly
// as the commit before internal/wal existed wrote them (a fixed-batch job
// with a key spec and a memory cap; the replacement-selection "run" shape —
// descending, no consumed/want — spliced in as id 3). A checkpoint written
// by any earlier build must resume on this one, so these bytes are the
// format: TestManifestFormatPin fails if a line stops decoding to the same
// state or stops re-encoding to the same bytes.
var manifestPinLines = []string{
	`{"type":"begin","n":1024,"record_size":16,"run_records":256,"fan_in":2,"formation":"fixed-batch","alg":1,"alg_name":"threaded","key_spec":{"Offset":4,"Width":8,"Order":1},"max_memory":1048576}`,
	`{"type":"run","run":{"id":1,"path":"/ckpt/ckpt-disk000-g00021.dat","records":256,"frame_bytes":1024,"crcs":[3210146090,582497287,3143203146,3684026446]},"consumed":256,"want":{"Count":256,"Sum":1290155742498038579,"Mix":1813816355183343260}}`,
	`{"type":"run","run":{"id":2,"path":"/ckpt/ckpt-disk001-g00038.dat","records":256,"frame_bytes":1024,"crcs":[2591126726,3497190585,590585304,261005152]},"consumed":512,"want":{"Count":512,"Sum":7886005237271399645,"Mix":4171185013142468878}}`,
	`{"type":"run","run":{"id":3,"path":"/ckpt/ckpt-disk002-g00081.dat","records":108,"descending":true,"frame_bytes":1024,"crcs":[1411964464,1235614259]}}`,
	`{"type":"ingest_done","want":{"Count":1024,"Sum":4016011241713154603,"Mix":11964335138710696973}}`,
	`{"type":"merged","run":{"id":4,"path":"/ckpt/ckpt-disk004-g00073.dat","records":512,"frame_bytes":1024,"crcs":[2899117046,1634418474,1275431064,3860679374,2764001930,2284087125,935051013,3103677861]},"inputs":[1,2]}`,
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
	if b.N != 1024 || b.RecordSize != 16 || b.RunRecords != 256 || b.FanIn != 2 || b.Formation != "fixed-batch" ||
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
	if r := st.live[0]; !r.Descending || r.Records != 108 || r.FrameBytes != 1024 ||
		r.Path != "/ckpt/ckpt-disk002-g00081.dat" || !reflect.DeepEqual(r.CRCs, []uint32{1411964464, 1235614259}) {
		t.Errorf("run 3 folded to %+v", r)
	}
	want := record.Checksum{Count: 1024, Sum: 4016011241713154603, Mix: 11964335138710696973}
	if st.consumed != 512 || !st.ingestDone || st.want != want || st.maxID != 4 || !st.done {
		t.Errorf("fold = consumed %d ingestDone %v want %+v maxID %d done %v",
			st.consumed, st.ingestDone, st.want, st.maxID, st.done)
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
