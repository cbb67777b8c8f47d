package colsort

import (
	"cmp"
	"fmt"
	"io"
	"os"

	"colsort/internal/record"
)

// A Sink receives a Sort's output: the real records (padding excluded), in
// global column-major sorted order, with any KeySpec normalization already
// undone. An order violation never reaches the sink, and Sort closes the
// writer only once the whole output is verified, so a sink may commit in
// Close; when Sort returns an error the writer is never closed, and a
// caller's own sink must discard what it received, while ToFile does that
// itself.
type Sink interface {
	// Open prepares the sink for records of recSize bytes. Sort writes the
	// whole output and closes the writer exactly once, on success only.
	Open(recSize int) (w RecordWriter, err error)
}

// RecordWriter consumes sorted records in order.
type RecordWriter interface {
	// Write appends the records of recs. The slice's backing memory is
	// reused after Write returns; implementations must copy what they keep.
	Write(recs record.Slice) error
	// Close flushes, commits and releases the writer. Sort calls it only
	// once the output has been verified; a failed Sort never does.
	Close() error
}

// aborter is the writer of a library sink that can discard its output: on a
// failed Sort the egress calls Abort instead of Close.
type aborter interface{ Abort() }

// egress is the one way a sorted output leaves the engine, on both sides of
// the bound. It opens dst and runs stream, which checks each chunk's order
// in the normalized key space and folds the chunk into the multiset it
// returns before handing it to emit; emit decodes the chunk back to the
// caller's layout and writes it. The multiset is compared with want, the
// ingest checksum, before the writer is closed: Close is the job's commit
// point, where ToFile publishes. On any failure the writer is not closed:
// a library writer is aborted, and a caller's own is left to the caller,
// whom Sort's error tells to discard it.
func egress(dst Sink, recSize int, codec record.KeyCodec, want record.Checksum, stream func(emit func(record.Slice) error) (record.Checksum, error)) error {
	w, err := dst.Open(recSize)
	if err != nil {
		return err
	}
	got, err := stream(func(c record.Slice) error {
		codec.Decode(c)
		return w.Write(c)
	})
	if err == nil && !got.Equal(want) {
		err = fmt.Errorf("colsort: output verification failed: the output's multiset differs from the input's (%d records emitted, %d ingested)", got.Count, want.Count)
	}
	if err == nil {
		return w.Close()
	}
	if a, ok := w.(aborter); ok {
		a.Abort()
	}
	return err
}

// ToFile writes the sorted records into the file at path, which a failed
// Sort leaves exactly as it was. The records go to a partial file beside it,
// path + ".partial"; a successful Sort renames that onto path, a failed one
// removes it. The name is fixed so that a Sort continuing a crashed job
// overwrites the partial file the crash left. The rename gives path a new
// inode with the old file's mode: hard links to the old file keep the old
// output. A path that is a symlink or not a regular file (a device such as
// /dev/null, a FIFO) is written in place. Wrapped in a caller's sink,
// ToFile publishes when the wrapper closes it, and a failed Sort leaves
// path as it was and the partial file behind.
func ToFile(path string) Sink {
	return &fileSink{path: path}
}

type fileSink struct{ path string }

func (s *fileSink) Open(int) (RecordWriter, error) {
	fw := &fileWriter{path: s.path}
	fi, err := os.Lstat(s.path)
	regular := err == nil && fi.Mode().IsRegular()
	if err != nil || regular {
		fw.partial = s.path + ".partial"
	}
	f, err := os.Create(cmp.Or(fw.partial, s.path))
	if err == nil && regular {
		// The rename replaces path's inode: keep the file's mode.
		if err = f.Chmod(fi.Mode()); err != nil {
			f.Close()             //nolint:errcheck // the Chmod failure is the one to report
			os.Remove(fw.partial) //nolint:errcheck // best effort
		}
	}
	if err != nil {
		return nil, fmt.Errorf("colsort: %w", err)
	}
	fw.f = f
	return fw, nil
}

// fileWriter writes each chunk straight to the file: the egress hands over
// chunks of hundreds of KiB (a drain segment, a merge chunk), so a buffer
// would only add a copy of the output.
type fileWriter struct {
	path    string
	partial string // the file written, renamed onto path at Close; "" writes path in place
	f       *os.File
}

func (fw *fileWriter) Write(recs record.Slice) error {
	if _, err := fw.f.Write(recs.Data); err != nil {
		return fmt.Errorf("colsort: write %s: %w", fw.path, err)
	}
	return nil
}

// Close closes the output and publishes it: the partial file is renamed
// onto path. If any step fails, the output is discarded as by Abort.
func (fw *fileWriter) Close() error {
	err := fw.f.Close()
	if err == nil && fw.partial != "" {
		err = os.Rename(fw.partial, fw.path)
	}
	if err != nil {
		fw.Abort()
		return fmt.Errorf("colsort: write %s: %w", fw.path, err)
	}
	return nil
}

// Abort discards the output: the partial file is removed, so path keeps
// what it held before the Sort.
func (fw *fileWriter) Abort() {
	fw.f.Close() //nolint:errcheck // the output is being discarded
	if fw.partial != "" {
		os.Remove(fw.partial) //nolint:errcheck // best effort; the Sort's error is the one reported
	}
}

// ToWriter streams the sorted records into w, which is not closed.
func ToWriter(w io.Writer) Sink {
	return &writerSink{w: w}
}

type writerSink struct{ w io.Writer }

func (s *writerSink) Open(int) (RecordWriter, error) {
	if s.w == nil {
		return nil, fmt.Errorf("colsort: nil writer")
	}
	return &writerWriter{w: s.w}, nil
}

type writerWriter struct{ w io.Writer }

func (ww *writerWriter) Write(recs record.Slice) error {
	if _, err := ww.w.Write(recs.Data); err != nil {
		return fmt.Errorf("colsort: write output: %w", err)
	}
	return nil
}

func (ww *writerWriter) Close() error { return nil }

// Discard drains and drops the sorted output. Useful to exercise the full
// egress path (verification, decode, streaming) when only the Result's
// counters matter.
func Discard() Sink { return discardSink{} }

type discardSink struct{}

func (discardSink) Open(int) (RecordWriter, error) { return discardWriter{}, nil }

type discardWriter struct{}

func (discardWriter) Write(record.Slice) error { return nil }
func (discardWriter) Close() error             { return nil }
