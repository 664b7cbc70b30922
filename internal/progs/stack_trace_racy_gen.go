// Code generated by raceinstrument; DO NOT EDIT.
// Subject package: stack; entry: RacyTrace.

package progs

import (
	"fmt"
	"strings"

	"gorace/internal/sched"
)

// ProgStackTrace runs the instrumented "stack" package under the modeled
// scheduler, entering at RacyTrace.
func ProgStackTrace(g *sched.G) {
	g.StableIDs()
	type Frame struct {
		Func string // fully qualified function name, e.g. "processOrders.func1"
		File string // pseudo file name, e.g. "listing6.go"
		Line int    // line number at the call site or access site
	}
	type Context struct {
		frames []Frame
	}
	type Stack struct {
		frames *sched.Slice[Frame]
		cached *sched.Var[Context]
		dirty  *sched.Var[bool]
	}
	var traceMu *sched.Mutex
	var NewContext func(g *sched.G, _ ...Frame) Context
	var NewStack func(g *sched.G) *Stack
	var RacyTrace func(g *sched.G)
	var FixedTrace func(g *sched.G)
	var Frame_String func(g *sched.G, _ Frame) string
	var Context_Frames func(g *sched.G, _ Context) []Frame
	var Context_Depth func(g *sched.G, _ Context) int
	var Context_Leaf func(g *sched.G, _ Context) Frame
	var Context_Root func(g *sched.G, _ Context) Frame
	var Context_Key func(g *sched.G, _ Context) string
	var Context_String func(g *sched.G, _ Context) string
	var Stack_Push func(g *sched.G, _ *Stack, _ string, _ string, _ int)
	var Stack_Pop func(g *sched.G, _ *Stack)
	var Stack_SetLine func(g *sched.G, _ *Stack, _ int)
	var Stack_Depth func(g *sched.G, _ *Stack) int
	var Stack_Capture func(g *sched.G, _ *Stack) Context
	var Context_AppendKey func(g *sched.G, _ Context, _ []byte) []byte
	var Stack_Reset func(g *sched.G, _ *Stack)
	_ = traceMu
	_ = NewContext
	_ = NewStack
	_ = RacyTrace
	_ = FixedTrace
	_ = Frame_String
	_ = Context_Frames
	_ = Context_Depth
	_ = Context_Leaf
	_ = Context_Root
	_ = Context_Key
	_ = Context_String
	_ = Stack_Push
	_ = Stack_Pop
	_ = Stack_SetLine
	_ = Stack_Depth
	_ = Stack_Capture
	_ = Context_AppendKey
	_ = Stack_Reset
	Frame_String = func(g *sched.G, f Frame) string {
		g.Push("stack.Frame_String", "stack.go", 27)
		defer g.Pop()
		if f.File == "" {
			return f.Func
		}
		return fmt.Sprintf("%s %s:%d", f.Func, f.File, f.Line)
	}
	Context_Frames = func(g *sched.G, c Context) []Frame {
		g.Push("stack.Context_Frames", "stack.go", 47)
		defer g.Pop()
		return c.frames
	}
	Context_Depth = func(g *sched.G, c Context) int {
		g.Push("stack.Context_Depth", "stack.go", 50)
		defer g.Pop()
		return len(c.frames)
	}
	Context_Leaf = func(g *sched.G, c Context) Frame {
		g.Push("stack.Context_Leaf", "stack.go", 53)
		defer g.Pop()
		if len(c.frames) == 0 {
			return Frame{}
		}
		return c.frames[len(c.frames)-1]
	}
	Context_Root = func(g *sched.G, c Context) Frame {
		g.Push("stack.Context_Root", "stack.go", 61)
		defer g.Pop()
		if len(c.frames) == 0 {
			return Frame{}
		}
		return c.frames[0]
	}
	Context_Key = func(g *sched.G, c Context) string {
		g.Push("stack.Context_Key", "stack.go", 70)
		defer g.Pop()
		key := Context_AppendKey(g, c, nil)
		return string(key)
	}
	Context_String = func(g *sched.G, c Context) string {
		g.Push("stack.Context_String", "stack.go", 77)
		defer g.Pop()
		var b strings.Builder
		for i := len(c.frames) - 1; i >= 0; i-- {
			fmt.Fprintf(&b, "  %s\n", Frame_String(g, c.frames[i]))
		}
		return b.String()
	}
	Stack_Push = func(g *sched.G, s *Stack, fn string, file string, line int) {
		g.Push("stack.Stack_Push", "stack.go", 96)
		defer g.Pop()
		s.frames.Append(g, Frame{Func: fn, File: file, Line: line})
		s.dirty.Store(g, true)
	}
	Stack_Pop = func(g *sched.G, s *Stack) {
		g.Push("stack.Stack_Pop", "stack.go", 103)
		defer g.Pop()
		if s.frames.Len(g) == 0 {
			panic("stack: Pop on empty stack")
		}
		s.frames.Truncate(g, s.frames.Len(g)-1)
		s.dirty.Store(g, true)
	}
	Stack_SetLine = func(g *sched.G, s *Stack, line int) {
		g.Push("stack.Stack_SetLine", "stack.go", 113)
		defer g.Pop()
		if s.frames.Len(g) == 0 {
			return
		}
		if s.frames.Get(g, s.frames.Len(g)-1).Line != line {
			_i0 := s.frames.Len(g) - 1
			_e1 := s.frames.Get(g, _i0)
			_e1.Line = line
			s.frames.Set(g, _i0, _e1)
			s.dirty.Store(g, true)
		}
	}
	Stack_Depth = func(g *sched.G, s *Stack) int {
		g.Push("stack.Stack_Depth", "stack.go", 124)
		defer g.Pop()
		return s.frames.Len(g)
	}
	Stack_Capture = func(g *sched.G, s *Stack) Context {
		g.Push("stack.Stack_Capture", "stack.go", 129)
		defer g.Pop()
		if !s.dirty.Load(g) {
			return s.cached.Load(g)
		}
		s.cached.Store(g, NewContext(g, s.frames.Values(g)...))
		s.dirty.Store(g, false)
		return s.cached.Load(g)
	}
	Context_AppendKey = func(g *sched.G, c Context, dst []byte) []byte {
		g.Push("stack.Context_AppendKey", "stack.go", 140)
		defer g.Pop()
		for i, f := range c.frames {
			if i > 0 {
				dst = append(dst, "->"...)
			}
			dst = append(dst, f.Func...)
		}
		return dst
	}
	Stack_Reset = func(g *sched.G, s *Stack) {
		g.Push("stack.Stack_Reset", "stack.go", 152)
		defer g.Pop()
		s.frames.Truncate(g, 0)
		s.cached.Store(g, Context{})
		s.dirty.Store(g, true)
	}
	NewContext = func(g *sched.G, frames ...Frame) Context {
		g.Push("stack.NewContext", "stack.go", 40)
		defer g.Pop()
		c := Context{frames: make([]Frame, len(frames))}
		copy(c.frames, frames)
		return c
	}
	NewStack = func(g *sched.G) *Stack {
		g.Push("stack.NewStack", "stack.go", 93)
		defer g.Pop()
		return &Stack{frames: sched.NewSlice[Frame](g, "Stack.frames", 0), cached: sched.NewVar[Context](g, "Stack.cached"), dirty: sched.NewVarOf[bool](g, "Stack.dirty", true)}
	}
	RacyTrace = func(g *sched.G) {
		g.Push("stack.RacyTrace", "zz_harness.go", 8)
		defer g.Pop()
		s := NewStack(g)
		Stack_Push(g, s, "main", "main.go", 1)
		done := sched.NewChan[bool](g, "done", 2)
		g.Go("RacyTrace.func1", func(g *sched.G) {
			g.Push("stack.RacyTrace.func1", "zz_harness.go", 12)
			defer g.Pop()
			Stack_Push(g, s, "worker", "worker.go", 10)
			Stack_SetLine(g, s, 11)
			_ = Stack_Capture(g, s)
			Stack_Pop(g, s)
			done.Send(g, true)
		})
		g.Go("RacyTrace.func2", func(g *sched.G) {
			g.Push("stack.RacyTrace.func2", "zz_harness.go", 19)
			defer g.Pop()
			_ = Stack_Capture(g, s)
			_ = Stack_Depth(g, s)
			done.Send(g, true)
		})
		done.Recv(g)
		done.Recv(g)
	}
	FixedTrace = func(g *sched.G) {
		g.Push("stack.FixedTrace", "zz_harness.go", 31)
		defer g.Pop()
		s := NewStack(g)
		Stack_Push(g, s, "main", "main.go", 1)
		done := sched.NewChan[bool](g, "done", 2)
		g.Go("FixedTrace.func1", func(g *sched.G) {
			g.Push("stack.FixedTrace.func1", "zz_harness.go", 35)
			defer g.Pop()
			traceMu.Lock(g)
			Stack_Push(g, s, "worker", "worker.go", 10)
			Stack_SetLine(g, s, 11)
			_ = Stack_Capture(g, s)
			Stack_Pop(g, s)
			traceMu.Unlock(g)
			done.Send(g, true)
		})
		g.Go("FixedTrace.func2", func(g *sched.G) {
			g.Push("stack.FixedTrace.func2", "zz_harness.go", 44)
			defer g.Pop()
			traceMu.Lock(g)
			_ = Stack_Capture(g, s)
			_ = Stack_Depth(g, s)
			traceMu.Unlock(g)
			done.Send(g, true)
		})
		done.Recv(g)
		done.Recv(g)
	}
	traceMu = sched.NewMutex(g, "traceMu")
	RacyTrace(g)
}
