package service

import gts "repro"

// HoldSystem keeps sys from running anything until the returned release is
// called: it holds the System's run lock in a RunShared whose admit call
// waits for release and returns no job, so the run ends without touching the
// device. It is exported for the external test package.
func HoldSystem(sys *gts.System) (release func()) {
	held, free := make(chan struct{}), make(chan struct{})
	go sys.RunShared(nil, func() []gts.SharedJob {
		close(held)
		<-free
		return nil
	})
	<-held
	return func() { close(free) }
}
