package merge

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"colsort/internal/pdm"
	"colsort/internal/record"
	"colsort/internal/testutil"
)

// corruptReadDisk lets skip reads through, flips one bit of the next, then
// behaves cleanly — transient read-path corruption (a damaged staging
// buffer), which the CRC layer must detect and heal with a reread.
type corruptReadDisk struct {
	pdm.Disk
	skip int
	done bool
}

func (d *corruptReadDisk) ReadAt(p []byte, off int64) error {
	if err := d.Disk.ReadAt(p, off); err != nil {
		return err
	}
	if d.skip > 0 {
		d.skip--
	} else if !d.done && len(p) > 0 {
		d.done = true
		p[len(p)/2] ^= 0x04
	}
	return nil
}

// TestCRCDetectsPersistentCorruption: corrupting a spilled run's bytes on
// disk must fail the merge with ErrCorrupt — never flow silently into a
// "verified" output — even though the corruption would still produce a
// well-ordered stream.
func TestCRCDetectsPersistentCorruption(t *testing.T) {
	testutil.CheckLeaks(t, "")
	m := pdm.Machine{P: 1, D: 1}
	const n, z, chunk = 512, 16, 64
	recs := record.Make(n, z)
	record.Fill(recs, record.Uniform{Seed: 3}, 0)
	run := buildRun(t, m, recs, chunk)
	defer run.Close()

	// Flip one bit in the middle of the second chunk, directly on disk.
	off := int64(chunk*z) + 40
	b := make([]byte, 1)
	if err := run.Disk.ReadAt(b, off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x01
	if err := run.Disk.WriteAt(b, off); err != nil {
		t.Fatal(err)
	}

	var faults pdm.FaultStats
	_, _, _, err := collect(t, context.Background(), []*Run{run}, z,
		Options{ChunkRecs: chunk, Faults: &faults})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	if faults.CorruptChunks.Load() == 0 {
		t.Error("corruption not counted")
	}
	if faults.Rereads.Load() != 0 {
		t.Error("persistent corruption cannot heal by reread")
	}
}

// TestCRCRereadHealsTransientCorruption: corruption injected on the read
// path (not on disk) is detected by the frame CRC and healed by one direct
// reread; the merge completes with the correct output.
func TestCRCRereadHealsTransientCorruption(t *testing.T) {
	testutil.CheckLeaks(t, "")
	m := pdm.Machine{P: 1, D: 1}
	const n, z, chunk = 512, 16, 64
	all := record.Make(n, z)
	record.Fill(all, record.Uniform{Seed: 5}, 0)
	ref := record.Make(n, z)
	ref.Copy(all)
	sortSlice(ref)
	run := buildRun(t, m, all, chunk)
	defer run.Close()
	run.Disk = &corruptReadDisk{Disk: run.Disk}

	var faults pdm.FaultStats
	out, _, _, err := collect(t, context.Background(), []*Run{run}, z,
		Options{ChunkRecs: chunk, Faults: &faults})
	if err != nil {
		t.Fatalf("merge under transient read corruption: %v", err)
	}
	if !bytes.Equal(out.Data, ref.Data) {
		t.Fatal("healed merge produced wrong bytes")
	}
	if faults.CorruptChunks.Load() != 1 || faults.Rereads.Load() != 1 {
		t.Errorf("faults = %d detected, %d healed; want 1, 1",
			faults.CorruptChunks.Load(), faults.Rereads.Load())
	}
}

// TestScrubCatchesTornWrite: a torn spill write (only a prefix persisted,
// no error reported) passes Finish but must fail the post-spill scrub.
func TestScrubCatchesTornWrite(t *testing.T) {
	m := pdm.Machine{P: 1, D: 1}
	const n, z, chunk = 512, 16, 64
	recs := record.Make(n, z)
	record.Fill(recs, record.Uniform{Seed: 7}, 0)
	run := buildRun(t, m, recs, chunk)
	defer run.Close()

	var faults pdm.FaultStats
	if err := run.Scrub(context.Background(), &faults); err != nil {
		t.Fatalf("scrub of an intact run: %v", err)
	}

	// Tear the last chunk: zero its persisted tail, as if the write died
	// halfway and the sparse file read back zeros.
	tear := make([]byte, chunk*z/2)
	if err := run.Disk.WriteAt(tear, run.Bytes()-int64(len(tear))); err != nil {
		t.Fatal(err)
	}
	err := run.Scrub(context.Background(), &faults)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("scrub of a torn run: %v, want ErrCorrupt", err)
	}
	if faults.CorruptChunks.Load() == 0 {
		t.Error("scrub did not count the corrupt chunk")
	}
}

// TestReopenRefusesBadGeometry: every run is CRC-framed, so a persisted
// geometry no Writer produces — no frame, a frame that splits records, a
// sidecar short of or beyond the run's frames — is refused when the run is
// reopened, never read unverified.
func TestReopenRefusesBadGeometry(t *testing.T) {
	const n, z, chunk = 100, 16, 32
	recs := record.Make(n, z)
	record.Fill(recs, record.Uniform{Seed: 11}, 0)
	run := buildRun(t, pdm.Machine{P: 1, D: 1}, recs, chunk)
	defer run.Close()
	crcs := run.CRCs() // 4 frames: 32 + 32 + 32 + 4 records
	for _, tc := range []struct {
		name    string
		records int64
		frame   int
		crcs    []uint32
		ok      bool
	}{
		{"as written", n, chunk * z, crcs, true},
		{"no frame", n, 0, nil, false},
		{"frame splits a record", n, chunk*z + z/2, crcs, false},
		{"sidecar short a frame", n, chunk * z, crcs[:3], false},
		{"sidecar a frame long", n, chunk * z, append(crcs[:4:4], 0), false},
		{"negative length", -1, chunk * z, nil, false},
	} {
		got, err := Reopen(run.Disk, z, tc.records, false, tc.frame, tc.crcs)
		if (err == nil) != tc.ok {
			t.Errorf("%s: Reopen err = %v, want ok = %v", tc.name, err, tc.ok)
			continue
		}
		if tc.ok {
			out, _, _, err := collect(t, context.Background(), []*Run{got}, z, Options{ChunkRecs: chunk})
			if err != nil || !bytes.Equal(out.Data, recs.Data) {
				t.Errorf("%s: the reopened run does not merge back to its records (err %v)", tc.name, err)
			}
		}
	}
}
