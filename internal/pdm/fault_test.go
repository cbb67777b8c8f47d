package pdm

import (
	"errors"
	"testing"
)

// failDisk fails every operation with err, counting them.
type failDisk struct {
	Disk
	err error
	ops int
}

func (d *failDisk) ReadAt(p []byte, off int64) error  { d.ops++; return d.err }
func (d *failDisk) WriteAt(p []byte, off int64) error { d.ops++; return d.err }

// TestOpDiskNamesFailure: every disk a machine builds names an escaping
// failure with its operation, disk and extent, keeps the sentinel under it
// reachable, issues the failed operation exactly once, and still lets
// DiskFile walk through to the disk below.
func TestOpDiskNamesFailure(t *testing.T) {
	errBroken := errors.New("pdm test: disk broken")
	for _, tc := range []struct {
		name  string
		spill bool
	}{{"array disk", false}, {"spill disk", true}} {
		fd := &failDisk{Disk: NewMemDisk(), err: errBroken}
		m := Machine{P: 1, D: 1}
		var d Disk
		if tc.spill {
			d = m.WrapSpillDisk(fd, 5)
		} else {
			d = m.diskStack(fd, 5, 0, false)
		}
		for _, op := range []struct {
			name string
			do   func([]byte, int64) error
		}{{"read", d.ReadAt}, {"write", d.WriteAt}} {
			fd.ops = 0
			err := op.do(make([]byte, 16), 128)
			if !errors.Is(err, errBroken) {
				t.Fatalf("%s %s: errors.Is(errBroken) = false: %v", tc.name, op.name, err)
			}
			var oe *OpError
			if !errors.As(err, &oe) {
				t.Fatalf("%s %s: error lacks OpError context: %v", tc.name, op.name, err)
			}
			if oe.Op != op.name || oe.Disk != 5 || oe.Spill != tc.spill || oe.Off != 128 || oe.Len != 16 {
				t.Errorf("%s %s: OpError = %+v", tc.name, op.name, oe)
			}
			if fd.ops != 1 {
				t.Errorf("%s %s: the failed operation was issued %d times, want once", tc.name, op.name, fd.ops)
			}
		}
		if u, ok := d.(interface{ Unwrap() Disk }); !ok || u.Unwrap() != Disk(fd) {
			t.Errorf("%s: the context layer does not unwrap to the disk under it", tc.name)
		}
		d.Close()
	}
}
