// Package stack models calling contexts for the modeled runtime.
//
// A race report contains "two call chains (aka calling contexts or stack
// traces) of the two conflicting accesses" (§3.3). Corpus programs
// maintain an explicit frame stack per modeled goroutine; every event
// captures the current context. Contexts are immutable once captured.
//
// Capture is the hot path of instrumentation, so the per-goroutine
// Stack caches its last captured Context and reuses it until a frame is
// pushed or popped (the common case: many events per call frame).
package stack

import (
	"fmt"
	"strings"
)

// Frame is one entry of a modeled call stack.
type Frame struct {
	Func string // fully qualified function name, e.g. "processOrders.func1"
	File string // pseudo file name, e.g. "listing6.go"
	Line int    // line number at the call site or access site
}

// String renders the frame as "func file:line" (or just the
// function name for frames without a file).
func (f Frame) String() string {
	if f.File == "" {
		return f.Func
	}
	return fmt.Sprintf("%s %s:%d", f.Func, f.File, f.Line)
}

// Context is an immutable captured call chain, root first.
type Context struct {
	frames []Frame
}

// NewContext builds a context from root-first frames, copying the input.
func NewContext(frames ...Frame) Context {
	c := Context{frames: make([]Frame, len(frames))}
	copy(c.frames, frames)
	return c
}

// Frames returns the root-first frame list. Callers must not modify it.
func (c Context) Frames() []Frame { return c.frames }

// Depth returns the number of frames.
func (c Context) Depth() int { return len(c.frames) }

// Leaf returns the innermost frame (the access site), or a zero Frame.
func (c Context) Leaf() Frame {
	if len(c.frames) == 0 {
		return Frame{}
	}
	return c.frames[len(c.frames)-1]
}

// Root returns the outermost frame, or a zero Frame.
func (c Context) Root() Frame {
	if len(c.frames) == 0 {
		return Frame{}
	}
	return c.frames[0]
}

// Key renders the context as a single line-number-free string,
// "a()->b()->c()", suitable for hashing and lexicographic ordering.
func (c Context) Key() string {
	key := c.AppendKey(nil)
	return string(key)
}

// String renders the context leaf-first, one frame per line, in the
// style of Go's race detector output.
func (c Context) String() string {
	var b strings.Builder
	for i := len(c.frames) - 1; i >= 0; i-- {
		fmt.Fprintf(&b, "  %s\n", c.frames[i].String())
	}
	return b.String()
}

// Stack is the mutable per-goroutine frame stack.
type Stack struct {
	frames []Frame
	cached Context
	dirty  bool
}

// NewStack returns an empty stack.
func NewStack() *Stack { return &Stack{dirty: true} }

// Push enters a function frame.
func (s *Stack) Push(fn, file string, line int) {
	s.frames = append(s.frames, Frame{Func: fn, File: file, Line: line})
	s.dirty = true
}

// Pop leaves the innermost frame. Popping an empty stack is a modeling
// bug and panics.
func (s *Stack) Pop() {
	if len(s.frames) == 0 {
		panic("stack: Pop on empty stack")
	}
	s.frames = s.frames[:len(s.frames)-1]
	s.dirty = true
}

// SetLine updates the line number of the innermost frame, marking where
// within the current function the next event occurs.
func (s *Stack) SetLine(line int) {
	if len(s.frames) == 0 {
		return
	}
	if s.frames[len(s.frames)-1].Line != line {
		s.frames[len(s.frames)-1].Line = line
		s.dirty = true
	}
}

// Depth returns the current number of frames.
func (s *Stack) Depth() int { return len(s.frames) }

// Capture returns an immutable snapshot of the current stack. Snapshots
// are cached: repeated captures without intervening Push/Pop/SetLine
// return the same Context value without copying.
func (s *Stack) Capture() Context {
	if !s.dirty {
		return s.cached
	}
	s.cached = NewContext(s.frames...)
	s.dirty = false
	return s.cached
}

// AppendKey appends Key's rendering to dst and returns the extended
// slice, so a caller can build keys in its own buffer.
func (c Context) AppendKey(dst []byte) []byte {
	for i, f := range c.frames {
		if i > 0 {
			dst = append(dst, "->"...)
		}
		dst = append(dst, f.Func...)
	}
	return dst
}

// Reset empties the stack for reuse by another goroutine, keeping its
// frame buffer. Contexts captured earlier stay valid: Capture copies.
func (s *Stack) Reset() {
	s.frames = s.frames[:0]
	s.cached = Context{}
	s.dirty = true
}
