package callinit

import "fmt"

// Shared variables initialized from calls other than make: the value
// the call returns must survive, and channels made in plain code are
// modeled ones.

func nums() []int { return []int{1, 2, 3} }

func newChan() chan int { return make(chan int, 3) }

var results = newChan()

var seen = nums()

func Run() {
	var xs = nums()
	var done = newChan()
	go func() {
		xs[0]++
		seen[2] = xs[0]
		results <- xs[0]
		done <- 1
	}()
	xs[1]++
	<-done
	fmt.Println(<-results, xs[1], seen[2])
}
