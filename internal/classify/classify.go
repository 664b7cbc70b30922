// Package classify maps detected race reports back onto the taxonomy
// of Tables 2 and 3.
//
// The paper's authors labeled 1011 fixed races by hand, reading the
// two stack traces, the racing variable, and the surrounding code.
// This classifier mechanizes the same cues, in priority order:
// access-type evidence (atomic mismatch, write under a read-held
// lock), synchronization-role evidence (a WaitGroup waiter racing
// with a Done-er), structural evidence (map internals, slice headers,
// Test* root frames, closure-of-enclosing-function stacks, multi-file
// component spans), and naming conventions (err, range variables,
// named returns, globals, metrics).
//
// The classifier returns an ordered list: the first entry is the
// primary label; the rest are additional applicable labels ("these
// labelings are not mutually exclusive", §4.10). The three Table 3
// fix-strategy rows (removed concurrency, disabled tests, major
// refactor) are fix metadata, not race features, and cannot be
// inferred from a report; experiments take them from patch metadata.
package classify

import (
	"strings"

	"gorace/internal/report"
	"gorace/internal/taxonomy"
	"gorace/internal/trace"
	"gorace/internal/vclock"
)

// Hints carries per-goroutine synchronization-role evidence extracted
// from the execution trace (which goroutines touched channels, waited
// on WaitGroups, or completed them).
type Hints struct {
	ChanOps map[vclock.TID]int  // channel acquire/release counts
	Waiters map[vclock.TID]bool // goroutines that returned from wg.Wait
	Doners  map[vclock.TID]bool // goroutines that called wg.Done
	// WaitSeq records the sequence number of each goroutine's first
	// wg.Wait return; a waiter-side access participates in a
	// group-sync failure only if it executed *after* that point.
	WaitSeq map[vclock.TID]uint64
}

// HintsFromTrace scans a recorded event stream for role evidence.
func HintsFromTrace(events []trace.Event) Hints {
	h := newHints()
	for i := range events {
		h.note(&events[i])
	}
	return h
}

// HintsFromWindow scans a streaming window for role evidence, reading
// its rings in place. Every hint is per goroutine and each ring holds
// its goroutine's events in order, so the result equals
// HintsFromTrace(w.Events()) without the merge.
func HintsFromWindow(w *trace.WindowRecorder) Hints {
	h := newHints()
	w.Each(h.note)
	return h
}

func newHints() Hints {
	return Hints{
		ChanOps: make(map[vclock.TID]int),
		Waiters: make(map[vclock.TID]bool),
		Doners:  make(map[vclock.TID]bool),
		WaitSeq: make(map[vclock.TID]uint64),
	}
}

// note folds one event's role evidence into h; a goroutine's events
// must arrive in order, since WaitSeq keeps the first wait.
func (h Hints) note(ev *trace.Event) {
	switch {
	case ev.Kind == trace.KindChan:
		h.ChanOps[ev.G]++
	case ev.Kind == trace.KindWG && ev.Op == trace.OpAcquire:
		h.Waiters[ev.G] = true
		if _, ok := h.WaitSeq[ev.G]; !ok {
			h.WaitSeq[ev.G] = ev.Seq
		}
	case ev.Kind == trace.KindWG && ev.Op == trace.OpRelease:
		h.Doners[ev.G] = true
	}
}

// postWaitPair reports whether a is a waiter whose access happened
// after its wg.Wait returned, while b is a participant (Done-caller) —
// the pair group synchronization was supposed to order.
func postWaitPair(a, b report.Access, h Hints) bool {
	if !h.Waiters[a.G] || !h.Doners[b.G] {
		return false
	}
	ws, ok := h.WaitSeq[a.G]
	return ok && a.Seq > ws
}

// Classify returns the ordered labels for one race report. The list
// is never empty; the last-resort label is CatMissingLock for plain
// unsynchronized conflicts and CatUnknown if nothing at all applies.
func Classify(r report.Race, h Hints) []taxonomy.Category {
	var out []taxonomy.Category
	add := func(c taxonomy.Category) {
		for _, x := range out {
			if x == c {
				return
			}
		}
		out = append(out, c)
	}

	label := r.Var()
	first, second := r.First, r.Second

	// 1. Atomic mismatch: one side atomic, the other plain (§4.9.2).
	if first.Atomic != second.Atomic {
		add(taxonomy.CatPartialAtomics)
	}
	// 2. A write performed while holding only a read-mode lock.
	if writeUnderReadLock(first) || writeUnderReadLock(second) {
		add(taxonomy.CatRLockMutation)
	}
	// 3. A WaitGroup waiter's post-Wait access racing with a
	// participant's: the pair the group synchronization was supposed
	// to order. (A waiter's *pre*-Wait access racing with a worker is
	// an ordinary locking bug, not a WaitGroup misuse.)
	if postWaitPair(first, second, h) || postWaitPair(second, first, h) {
		add(taxonomy.CatGroupSync)
	}
	// 4. The two stacks span three or more source files: a
	// multi-component interaction.
	if distinctFiles(first, second) >= 3 {
		add(taxonomy.CatComplex)
	}
	// 5. A Test* root frame: the parallel test suite idiom.
	if isTestRoot(first) || isTestRoot(second) {
		add(taxonomy.CatParallelTest)
	}
	// 6. Map evidence: the shared sparse structure or a key cell.
	if strings.Contains(label, "(internal)") || strings.Contains(label, "[key]") {
		add(taxonomy.CatMap)
	}
	// 7. Slice evidence: the header (meta) cell or an element cell.
	if strings.Contains(label, "(meta") || strings.Contains(label, "[i]") || strings.Contains(label, "[new]") {
		add(taxonomy.CatSlice)
	}
	// 8. Library API state named by convention: a documented
	// thread-safe API whose implementation races internally. Checked
	// before the pointer-receiver cue — API-internal races also sit
	// in identical method leaves.
	if strings.HasPrefix(label, "api.") {
		add(taxonomy.CatAPIContract)
	}
	// 9. Pass-by-value evidence: a lock that is a copy, or the same
	// pointer-receiver method unexpectedly sharing receiver state.
	if hasCopyLock(first) || hasCopyLock(second) || sharedPointerReceiver(first, second) {
		add(taxonomy.CatPassByValue)
	}
	// 10–12. More naming conventions a human labeler would read off
	// the report: package globals, telemetry, init-before-publish.
	if strings.HasPrefix(label, "global.") {
		add(taxonomy.CatGlobalVar)
	}
	if strings.HasPrefix(label, "metrics.") || strings.HasPrefix(label, "log.") {
		add(taxonomy.CatMetricsLogging)
	}
	if strings.Contains(label, "(init)") {
		add(taxonomy.CatStatementOrder)
	}
	// 13–15. The capture idioms of Observation 3.
	if label == "err" {
		add(taxonomy.CatCaptureErr)
	}
	if strings.Contains(label, "(named)") {
		add(taxonomy.CatCaptureNamedReturn)
	}
	if strings.Contains(label, "(range)") {
		add(taxonomy.CatCaptureLoop)
	}
	// 16. Channel users racing on bare shared memory: the mixed
	// message-passing/shared-memory pattern.
	if len(first.Locks) == 0 && len(second.Locks) == 0 &&
		(h.ChanOps[first.G] > 0 || h.ChanOps[second.G] > 0) {
		add(taxonomy.CatMixedChanShared)
	}
	// 17. A closure racing with its enclosing function's frame, with
	// no locking in sight. (If either side holds a lock, the story is
	// partial locking, not an overlooked capture.)
	if len(first.Locks) == 0 && len(second.Locks) == 0 &&
		(closureOfOther(first, second) || closureOfOther(second, first)) {
		add(taxonomy.CatCaptureOther)
	}
	// 18. Fallback: missing or partial locking.
	add(taxonomy.CatMissingLock)
	return out
}

// Primary returns just the primary label.
func Primary(r report.Race, h Hints) taxonomy.Category {
	return Classify(r, h)[0]
}

func writeUnderReadLock(a report.Access) bool {
	if !a.Op.IsWrite() {
		return false
	}
	if len(a.Locks) == 0 {
		return false
	}
	for _, l := range a.Locks {
		if !strings.HasSuffix(l, "(r)") {
			return false // holds a write-mode lock too
		}
	}
	return true
}

func distinctFiles(a, b report.Access) int {
	files := make(map[string]bool)
	for _, f := range a.Stack.Frames() {
		if f.File != "" {
			files[f.File] = true
		}
	}
	for _, f := range b.Stack.Frames() {
		if f.File != "" {
			files[f.File] = true
		}
	}
	return len(files)
}

func isTestRoot(a report.Access) bool {
	return strings.HasPrefix(a.Stack.Root().Func, "Test")
}

func hasCopyLock(a report.Access) bool {
	for _, l := range a.Locks {
		if strings.Contains(l, "(copy)") {
			return true
		}
	}
	return false
}

// sharedPointerReceiver reports whether both accesses sit in the same
// pointer-receiver method — the "accidentally shared receiver" shape.
func sharedPointerReceiver(a, b report.Access) bool {
	la, lb := a.Stack.Leaf().Func, b.Stack.Leaf().Func
	return la != "" && la == lb && strings.HasPrefix(la, "(*")
}

// closureOfOther reports whether a's stack is inside an anonymous
// function of b's root function (Go names closures parent.funcN).
func closureOfOther(a, b report.Access) bool {
	root := b.Stack.Root().Func
	if root == "" {
		return false
	}
	for _, f := range a.Stack.Frames() {
		if strings.HasPrefix(f.Func, root+".func") {
			return true
		}
	}
	return false
}
