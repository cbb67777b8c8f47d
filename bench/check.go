package main

import (
	"bufio"
	"fmt"
	"io"
	"os"

	"colsort/internal/record"
)

// recSize is the record size of every workload, in bytes.
const recSize = 64

// ioChunkRecs is the records per write while generating an input.
const ioChunkRecs = 1 << 13

// writeInput generates n records of g into the file at path and returns their
// multiset checksum — by construction record.OfGenerated(g, n, recSize),
// taken while the records are in hand.
func writeInput(path string, g record.Generator, n int64) (record.Checksum, error) {
	var cs record.Checksum
	// A new file, never a truncated one: ext4 answers replace-by-truncate
	// with a synchronous flush of the new contents when the file is closed.
	os.Remove(path)
	f, err := os.Create(path)
	if err != nil {
		return cs, err
	}
	defer f.Close()
	buf := record.Make(ioChunkRecs, recSize)
	for base := int64(0); base < n; base += ioChunkRecs {
		c := buf.Sub(0, int(min(ioChunkRecs, n-base)))
		record.Fill(c, g, base)
		cs.AddSlice(c)
		if _, err := f.Write(c.Data); err != nil {
			return cs, err
		}
	}
	return cs, f.Close()
}

// fillInput is writeInput into memory.
func fillInput(g record.Generator, n int64) (record.Slice, record.Checksum) {
	var cs record.Checksum
	s := record.Make(int(n), recSize)
	record.Fill(s, g, 0)
	cs.AddSlice(s)
	return s, cs
}

// checkSorted is the benchmark's own output check. It streams r once and
// requires exactly n records, keys in non-decreasing order, and the multiset
// the generator produced. It runs outside every timed region.
func checkSorted(r io.Reader, n int64, want record.Checksum) error {
	br := bufio.NewReaderSize(r, 1<<20)
	rec := make([]byte, recSize)
	var got record.Checksum
	var prev uint64
	for i := int64(0); i < n; i++ {
		if _, err := io.ReadFull(br, rec); err != nil {
			return fmt.Errorf("output ends after %d of %d records: %w", i, n, err)
		}
		k := record.Key(rec)
		if k < prev {
			return fmt.Errorf("output out of order at record %d: key %#x after %#x", i, k, prev)
		}
		prev = k
		got.Add(rec)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return fmt.Errorf("output is longer than %d records", n)
	}
	if !got.Equal(want) {
		return fmt.Errorf("output multiset differs from the generated input's (%d records)", n)
	}
	return nil
}

func checkSortedFile(path string, n int64, want record.Checksum) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return checkSorted(f, n, want)
}
