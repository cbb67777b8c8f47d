package pdm

import "context"

// An Injector wraps one disk of a machine in a fault layer: disk idx's lane
// lane — an array disk (lane 0), or a lane of spill ordinal idx when spill.
// It returns d itself to inject nothing there. The machine calls it between
// the service-time model and the retry layer (see wrapFaultLayers), so an
// injected transient fault is healed by RetryDisk and an injected corruption
// is met by the layers above exactly as a failing disk's would be. A layer
// it adds implements Unwrap() Disk, so DiskFile still reaches the file under
// it.
//
// No product code builds one: the seeded fault model lives in
// internal/faultinject, which only tests import.
type Injector func(d Disk, idx, lane int, spill bool) Disk

type injectorKey struct{}

// WithInjector returns a copy of ctx carrying f: a Sort under that context
// builds its job's disks through f (the way net/http/httptrace carries its
// hooks on a request's context).
func WithInjector(ctx context.Context, f Injector) context.Context {
	return context.WithValue(ctx, injectorKey{}, f)
}

// InjectorFrom returns the Injector ctx carries, or nil.
func InjectorFrom(ctx context.Context) Injector {
	f, _ := ctx.Value(injectorKey{}).(Injector)
	return f
}
