package colsort

import (
	"bufio"
	"fmt"
	"io"
	"os"

	"colsort/internal/record"
)

// A Source supplies the records a Sort consumes. Implementations adapt
// generators (Generate), real files (FromFile), byte buffers (FromBytes),
// and arbitrary streams (FromReader); third parties can implement their own.
type Source interface {
	// Open prepares the source for a sorter whose records are recSize
	// bytes, returning the exact number of records and a reader positioned
	// at record 0. Sort consumes each record exactly once, in index order,
	// and closes the reader when ingest completes.
	Open(recSize int) (n int64, r RecordReader, err error)
}

// RecordReader streams a Source's records in index order.
type RecordReader interface {
	// ReadRecord fills rec (one record) with the next record's bytes.
	ReadRecord(rec []byte) error
	// Close releases the reader's resources.
	Close() error
}

// Generate adapts a deterministic record generator as a Source of n
// records — the simulation-workload input of the original API.
func Generate(g record.Generator, n int64) Source {
	return &generatorSource{g: g, n: n}
}

type generatorSource struct {
	g record.Generator
	n int64
}

func (s *generatorSource) Open(recSize int) (int64, RecordReader, error) {
	if s.g == nil {
		return 0, nil, fmt.Errorf("colsort: nil generator")
	}
	return s.n, &generatorReader{g: s.g}, nil
}

type generatorReader struct {
	g   record.Generator
	idx int64
}

func (r *generatorReader) ReadRecord(rec []byte) error {
	r.g.Gen(rec, r.idx)
	r.idx++
	return nil
}

func (r *generatorReader) Close() error { return nil }

// FromFile reads records from the file at path; the file size must be a
// positive multiple of the sorter's record size. Reads are chunked (one
// pread per megabyte, not per record).
func FromFile(path string) Source {
	return &fileSource{path: path}
}

type fileSource struct{ path string }

func (s *fileSource) Open(recSize int) (int64, RecordReader, error) {
	f, err := os.Open(s.path)
	if err != nil {
		return 0, nil, fmt.Errorf("colsort: %w", err)
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return 0, nil, fmt.Errorf("colsort: %w", err)
	}
	if info.Size() == 0 || info.Size()%int64(recSize) != 0 {
		f.Close()
		return 0, nil, fmt.Errorf("colsort: input %s is %d bytes, not a positive multiple of the record size %d",
			s.path, info.Size(), recSize)
	}
	return info.Size() / int64(recSize), newChunkedReader(f, f.Close), nil
}

// readChunkBytes is the ingest read-chunk size of stream sources.
const readChunkBytes = 1 << 20

// chunkedReader turns an io.Reader into a RecordReader through a buffered
// reader, so file and stream ingest costs one read syscall per chunk and
// zero allocations per record. io.ReadFull supplies the io.Reader-contract
// care (transient (0, nil) returns, short reads across chunk boundaries).
type chunkedReader struct {
	br    *bufio.Reader
	close func() error
}

func newChunkedReader(r io.Reader, close func() error) *chunkedReader {
	return &chunkedReader{br: bufio.NewReaderSize(r, readChunkBytes), close: close}
}

func (c *chunkedReader) ReadRecord(rec []byte) error {
	if _, err := io.ReadFull(c.br, rec); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return fmt.Errorf("colsort: read input: %w", err)
	}
	return nil
}

func (c *chunkedReader) Close() error {
	if c.close != nil {
		return c.close()
	}
	return nil
}

// FromReader reads n records from r. Use it to sort data arriving over a
// pipe, a network connection, or any other stream; the stream must deliver
// at least n·recordSize bytes.
func FromReader(r io.Reader, n int64) Source {
	return &readerSource{r: r, n: n}
}

type readerSource struct {
	r io.Reader
	n int64
}

func (s *readerSource) Open(recSize int) (int64, RecordReader, error) {
	if s.r == nil {
		return 0, nil, fmt.Errorf("colsort: nil reader")
	}
	return s.n, newChunkedReader(s.r, nil), nil
}

// FromBytes sorts the records held in b, whose length must be a positive
// multiple of the sorter's record size. b is not modified.
func FromBytes(b []byte) Source {
	return &bytesSource{b: b}
}

type bytesSource struct{ b []byte }

func (s *bytesSource) Open(recSize int) (int64, RecordReader, error) {
	if len(s.b) == 0 || len(s.b)%recSize != 0 {
		return 0, nil, fmt.Errorf("colsort: input of %d bytes is not a positive multiple of the record size %d",
			len(s.b), recSize)
	}
	return int64(len(s.b) / recSize), &bytesReader{b: s.b}, nil
}

type bytesReader struct {
	b   []byte
	pos int
}

func (r *bytesReader) ReadRecord(rec []byte) error {
	if r.pos+len(rec) > len(r.b) {
		return io.ErrUnexpectedEOF
	}
	copy(rec, r.b[r.pos:])
	r.pos += len(rec)
	return nil
}

func (r *bytesReader) Close() error { return nil }
