package colsort

import (
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
//
// Sort calls ReadRecord strictly sequentially — never two calls at once —
// but not necessarily from the goroutine that called Sort: above the bound
// a dedicated ingest goroutine reads while the caller's goroutine selects.
// Close is called once, after the last ReadRecord has returned, on every
// path out of Sort (success, a failed read, cancellation); a reader needs
// no locking of its own.
type RecordReader interface {
	// ReadRecord fills rec (one record) with the next record's bytes.
	ReadRecord(rec []byte) error
	// Close releases the reader's resources.
	Close() error
}

// bulkReader is what the built-in readers add to RecordReader: the next
// dst.Len() records in one call, straight into dst. It returns how many
// whole records it delivered, short only with the error that stopped it.
type bulkReader interface {
	readRecords(dst record.Slice) (int, error)
}

// readRecords is bulkReader's call for any reader: record by record where
// rd is a third party's.
func readRecords(rd RecordReader, dst record.Slice) (int, error) {
	if b, ok := rd.(bulkReader); ok {
		return b.readRecords(dst)
	}
	for i := 0; i < dst.Len(); i++ {
		if err := rd.ReadRecord(dst.Record(i)); err != nil {
			return i, err
		}
	}
	return dst.Len(), nil
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

func (r *generatorReader) readRecords(dst record.Slice) (int, error) {
	for i := 0; i < dst.Len(); i++ {
		r.g.Gen(dst.Record(i), r.idx)
		r.idx++
	}
	return dst.Len(), nil
}

func (r *generatorReader) Close() error { return nil }

// FromFile reads records from the file at path; the file size must be a
// positive multiple of the sorter's record size. Reads are chunked (one
// read per ingest chunk, not per record).
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

// chunkedReader turns an io.Reader into a RecordReader. Sort reads it in
// bulk on both sides of the bound — one io.ReadFull per ingest chunk,
// straight into the chunk, zero allocations per record — and ReadRecord is
// the same read at one record's length. io.ReadFull supplies the
// io.Reader-contract care (transient (0, nil) returns, short reads across
// chunk boundaries).
type chunkedReader struct {
	r     io.Reader
	close func() error
}

func newChunkedReader(r io.Reader, close func() error) *chunkedReader {
	return &chunkedReader{r: r, close: close}
}

func (c *chunkedReader) ReadRecord(rec []byte) error {
	_, err := c.readRecords(record.Slice{Data: rec, Size: len(rec)})
	return err
}

func (c *chunkedReader) readRecords(dst record.Slice) (int, error) {
	n, err := io.ReadFull(c.r, dst.Data)
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		err = fmt.Errorf("colsort: read input: %w", err)
	}
	return n / dst.Size, err
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
	_, err := r.readRecords(record.Slice{Data: rec, Size: len(rec)})
	return err
}

func (r *bytesReader) readRecords(dst record.Slice) (int, error) {
	n := copy(dst.Data, r.b[r.pos:]) / dst.Size
	r.pos += n * dst.Size
	if n < dst.Len() {
		return n, io.ErrUnexpectedEOF
	}
	return n, nil
}

func (r *bytesReader) Close() error { return nil }
