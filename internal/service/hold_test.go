package service

import gts "repro"

// HoldSystem keeps sys from running anything until the returned release is
// called: it holds the System's run lock in a wave group of no members whose
// first admit poll waits for release. It is exported for the external test
// package.
func HoldSystem(sys *gts.System) (release func()) {
	held, free := make(chan struct{}), make(chan struct{})
	go sys.RunGroup(nil, func() []gts.SharedJob {
		close(held)
		<-free
		return nil
	})
	<-held
	return func() { close(free) }
}
