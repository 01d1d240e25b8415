package hw

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/sim"
)

// Device is one secondary-storage device bound to a simulation environment.
// Reads serialize on the device queue. A read that continues from where the
// previous one ended proceeds at the sequential rate; otherwise at the
// random rate — the distinction that makes HDDs collapse under page-level
// random access (paper Fig. 9).
type Device struct {
	Spec  StorageSpec
	Index int

	queue     *sim.Resource
	inj       *fault.Injector
	lastEnd   int64 // byte offset where the previous read ended
	bytesRead int64
	reads     int64
	seqReads  int64
}

// NewDevice binds a storage spec to env.
func NewDevice(env *sim.Env, spec StorageSpec, index int) *Device {
	return &Device{Spec: spec, Index: index, queue: sim.NewResource(env, 1), lastEnd: -1}
}

// InjectFaults arms the device with a fault injector. A nil injector
// restores fault-free behaviour.
func (d *Device) InjectFaults(inj *fault.Injector) { d.inj = inj }

// Read fetches n bytes at byte offset off, blocking p for queueing plus
// service time. An injected storage error fails the read after full
// service time (the device tried, the transfer came back bad); corrupt
// reports that the read "succeeded" but returned damaged data, which the
// caller detects by page checksum.
func (d *Device) Read(p *sim.Proc, off, n int64) (corrupt bool, err error) {
	corrupt, err = d.inj.StorageRead()
	d.queue.Acquire(p)
	rate := d.Spec.RandRead
	if off == d.lastEnd {
		rate = d.Spec.SeqRead
		d.seqReads++
	}
	p.Delay(d.Spec.Latency + sim.ByteTime(n, rate))
	d.lastEnd = off + n
	d.reads++
	d.queue.Release()
	if err != nil {
		return false, fmt.Errorf("%w (device %d, offset %d)", err, d.Index, off)
	}
	d.bytesRead += n
	return corrupt, nil
}

// BytesRead reports cumulative bytes served.
func (d *Device) BytesRead() int64 { return d.bytesRead }

// Reads reports total and sequential request counts.
func (d *Device) Reads() (total, sequential int64) { return d.reads, d.seqReads }

// Array stripes pages across devices with the paper's hash g(j): page j
// lives on device j mod N (§4.1), so streaming reads fan out over all
// spindles.
type Array struct {
	Devices []*Device
	// pageSize fixes each page's on-device layout for offset computation.
	pageSize int64
}

// NewArray builds an array over the given specs.
func NewArray(env *sim.Env, specs []StorageSpec, pageSize int64) *Array {
	a := &Array{pageSize: pageSize}
	for i, s := range specs {
		a.Devices = append(a.Devices, NewDevice(env, s, i))
	}
	return a
}

// InjectFaults arms every device in the array with the same injector.
func (a *Array) InjectFaults(inj *fault.Injector) {
	for _, d := range a.Devices {
		d.InjectFaults(inj)
	}
}

// ReadPage fetches page pid, blocking p. Pages are laid out in pid order on
// each device, so a scan over consecutive pids is sequential per device.
// corrupt means the page arrived damaged (caller verifies the checksum and
// re-reads); err means the read failed outright.
func (a *Array) ReadPage(p *sim.Proc, pid uint64) (corrupt bool, err error) {
	n := uint64(len(a.Devices))
	d := a.Devices[pid%n]
	off := int64(pid/n) * a.pageSize
	return d.Read(p, off, a.pageSize)
}

// BytesRead reports cumulative bytes served across all devices.
func (a *Array) BytesRead() int64 {
	var n int64
	for _, d := range a.Devices {
		n += d.BytesRead()
	}
	return n
}
