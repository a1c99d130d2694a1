package broker

import "sync"

// spawnSelect exits when the done channel fires.
func spawnSelect(done chan struct{}, work chan int) {
	go func() {
		for {
			select {
			case <-done:
				return
			case v := <-work:
				_ = v
			}
		}
	}()
}

// spawnWG is WaitGroup-registered.
func spawnWG(wg *sync.WaitGroup, f func()) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		f()
	}()
}

// spawnCompletion signals its end on a completion channel.
func spawnCompletion(serveDone chan error, f func() error) {
	go func() {
		serveDone <- f()
	}()
}

// spawnCtx blocks on context cancellation.
func spawnCtx(ctx interface{ Done() <-chan struct{} }) {
	go func() {
		<-ctx.Done()
	}()
}

// spawnAnnotated is deliberately process-lifetime and says why.
func spawnAnnotated() {
	//lint:ignore goleak fixture stand-in for a signal-handler-style loop
	go func() {
		for {
		}
	}()
}
