package core

import "fmt"

// Builder constructs platforms programmatically with a fluent interface. It
// is the in-code equivalent of writing a PDL document by hand: every entity
// the XML can express is reachable through the builder, and Build runs the
// machine-model validation before handing the platform out.
//
//	pl, err := core.NewBuilder("gpgpu-node").
//	    Master("0", core.Arch("x86")).
//	    Worker("1", core.Arch("gpu")).
//	    Link("rDMA", "0", "1").
//	    Build()
type Builder struct {
	platform *Platform
	stack    []*PU // open hierarchy scopes; top is the current controller
	err      error
	autoID   int
}

// NewBuilder returns a Builder for a platform with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{platform: &Platform{Name: name, SchemaVersion: SchemaVersion}}
}

// SchemaVersion is the PDL schema version stamped on built platforms.
const SchemaVersion = "1.0"

// PUOption customises a PU added through the builder.
type PUOption func(*PU)

// Arch sets the ARCHITECTURE property (fixed).
func Arch(arch string) PUOption {
	return func(p *PU) { p.Descriptor.SetFixed(PropArchitecture, arch) }
}

// Qty sets the quantity of identical units this node stands for.
func Qty(n int) PUOption {
	return func(p *PU) { p.Quantity = n }
}

// Named sets the human-readable unit name.
func Named(name string) PUOption {
	return func(p *PU) { p.Name = name }
}

// WithProp adds a fixed base-schema property.
func WithProp(name, value string) PUOption {
	return func(p *PU) { p.Descriptor.SetFixed(name, value) }
}

// WithUnitProp adds a fixed property carrying a unit (e.g. GLOBAL_MEM_SIZE
// in kB).
func WithUnitProp(name, value, unit string) PUOption {
	return func(p *PU) {
		p.Descriptor.Set(Property{Name: name, Value: value, Unit: unit, Fixed: true})
	}
}

// WithUnfixedProp adds an unfixed property for later completion by tools.
func WithUnfixedProp(name, value string) PUOption {
	return func(p *PU) { p.Descriptor.SetUnfixed(name, value) }
}

// InGroups attaches LogicGroupAttribute values to the unit.
func InGroups(groups ...string) PUOption {
	return func(p *PU) { p.Groups = append(p.Groups, groups...) }
}

// WithMemory attaches a memory region with a GLOBAL_MEM_SIZE property.
func WithMemory(id string, sizeKB int64) PUOption {
	return func(p *PU) {
		mr := MemoryRegion{ID: id, Name: id}
		mr.Descriptor.Set(Property{Name: PropMemSize, Value: fmt.Sprint(sizeKB), Unit: "kB", Fixed: true})
		p.Memory = append(p.Memory, mr)
	}
}

func (b *Builder) fail(format string, args ...any) *Builder {
	if b.err == nil {
		b.err = fmt.Errorf("core: builder: "+format, args...)
	}
	return b
}

func (b *Builder) add(pu *PU) *Builder {
	if b.err != nil {
		return b
	}
	if len(b.stack) == 0 {
		if pu.Class != Master {
			return b.fail("%s %q added at top level; open a Master first", pu.Class, pu.ID)
		}
		b.platform.Masters = append(b.platform.Masters, pu)
		return b
	}
	top := b.stack[len(b.stack)-1]
	top.Children = append(top.Children, pu)
	return b
}

func (b *Builder) newPU(class Class, id string, opts []PUOption) *PU {
	if id == "" {
		id = fmt.Sprintf("pu%d", b.autoID)
		b.autoID++
	}
	pu := &PU{ID: id, Class: class}
	for _, o := range opts {
		o(pu)
	}
	return pu
}

// Master adds a top-level Master and makes it the current scope so that
// subsequent Worker/Hybrid calls attach to it.
func (b *Builder) Master(id string, opts ...PUOption) *Builder {
	if b.err != nil {
		return b
	}
	pu := b.newPU(Master, id, opts)
	b.stack = nil // Masters always open a fresh top-level scope
	b.platform.Masters = append(b.platform.Masters, pu)
	b.stack = append(b.stack, pu)
	return b
}

// Worker adds a leaf Worker under the current scope.
func (b *Builder) Worker(id string, opts ...PUOption) *Builder {
	if b.err != nil {
		return b
	}
	if len(b.stack) == 0 {
		return b.fail("Worker %q added with no open Master/Hybrid scope", id)
	}
	return b.add(b.newPU(Worker, id, opts))
}

// Hybrid adds a Hybrid under the current scope and opens it as the new
// scope. Close the scope with End.
func (b *Builder) Hybrid(id string, opts ...PUOption) *Builder {
	if b.err != nil {
		return b
	}
	if len(b.stack) == 0 {
		return b.fail("Hybrid %q added with no open Master/Hybrid scope", id)
	}
	pu := b.newPU(Hybrid, id, opts)
	b.add(pu)
	b.stack = append(b.stack, pu)
	return b
}

// End closes the innermost open Hybrid scope.
func (b *Builder) End() *Builder {
	if b.err != nil {
		return b
	}
	if len(b.stack) <= 1 {
		return b.fail("End with no open Hybrid scope")
	}
	b.stack = b.stack[:len(b.stack)-1]
	return b
}

// Link declares an interconnect between two PU ids. The link is attached to
// the current scope (or the first Master when no scope is open) and is
// duplex by default.
func (b *Builder) Link(icType, from, to string, opts ...LinkOption) *Builder {
	if b.err != nil {
		return b
	}
	ic := Interconnect{
		ID:     fmt.Sprintf("ic%d", b.autoID),
		Type:   icType,
		From:   from,
		To:     to,
		Duplex: true,
	}
	b.autoID++
	for _, o := range opts {
		o(&ic)
	}
	var host *PU
	if len(b.stack) > 0 {
		host = b.stack[len(b.stack)-1]
	} else if len(b.platform.Masters) > 0 {
		host = b.platform.Masters[len(b.platform.Masters)-1]
	}
	if host == nil {
		return b.fail("Link %s->%s declared before any Master", from, to)
	}
	host.Links = append(host.Links, ic)
	return b
}

// LinkOption customises an interconnect added through the builder.
type LinkOption func(*Interconnect)

// Bandwidth sets the BANDWIDTH descriptor property in GB/s.
func Bandwidth(gbps float64) LinkOption {
	return func(ic *Interconnect) {
		ic.Descriptor.Set(Property{Name: PropBandwidth, Value: fmt.Sprint(gbps), Unit: "GB/s", Fixed: true})
	}
}

// Latency sets the LATENCY descriptor property in microseconds.
func Latency(us float64) LinkOption {
	return func(ic *Interconnect) {
		ic.Descriptor.Set(Property{Name: PropLatency, Value: fmt.Sprint(us), Unit: "us", Fixed: true})
	}
}

// Simplex marks the link as usable only from→to.
func Simplex() LinkOption {
	return func(ic *Interconnect) { ic.Duplex = false }
}

// Scheme sets the free-form communication scheme tag.
func Scheme(s string) LinkOption {
	return func(ic *Interconnect) { ic.Scheme = s }
}

// LinkID overrides the auto-assigned interconnect id.
func LinkID(id string) LinkOption {
	return func(ic *Interconnect) { ic.ID = id }
}

// Build validates and returns the constructed platform.
func (b *Builder) Build() (*Platform, error) {
	if b.err != nil {
		return nil, b.err
	}
	if err := b.platform.Validate(); err != nil {
		return nil, err
	}
	return b.platform, nil
}

// MustBuild is Build for tests and package-level fixtures; it panics on
// error.
func (b *Builder) MustBuild() *Platform {
	pl, err := b.Build()
	if err != nil {
		panic(err)
	}
	return pl
}
