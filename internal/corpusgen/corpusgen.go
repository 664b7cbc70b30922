// Package corpusgen generates synthetic Go and Java monorepos whose
// concurrency-construct densities match the paper's Table 1. The real
// subjects (Uber's 46 MLoC Go and 19 MLoC Java monorepos) are
// proprietary; a density-preserving synthetic corpus exercises the
// same static-counting pipeline and reproduces the same per-MLoC rates
// and ratios.
//
// Generated Go code is valid (it parses with go/parser); generated
// Java is text shaped for the regex counters, mirroring the paper's
// "coarse-grained and imperfect" lookup.
package corpusgen

import (
	"fmt"
	"math/rand"
	"strings"
)

// Profile gives target construct densities per million lines of code.
type Profile struct {
	Name string
	// Go densities.
	GoStmtsPerMLoC      float64
	LockUnlockPerMLoC   float64
	RLockRUnlockPerMLoC float64
	ChanOpsPerMLoC      float64
	WaitGroupPerMLoC    float64
	MapsPerMLoC         float64
	// Java densities.
	ThreadStartPerMLoC  float64
	SynchronizedPerMLoC float64
	AcquireRelPerMLoC   float64
	JLockUnlockPerMLoC  float64
	JGroupSyncPerMLoC   float64
	JMapsPerMLoC        float64
}

// UberGoProfile reproduces Table 1's Go column: 46 MLoC, 11515 go
// statements, 19062 lock+unlock, 5511 rlock+runlock, 10120 channel
// ops, 4795 WaitGroups, and §4.4's 273713 maps.
var UberGoProfile = Profile{
	Name:                "uber-go",
	GoStmtsPerMLoC:      11515.0 / 46,
	LockUnlockPerMLoC:   19062.0 / 46,
	RLockRUnlockPerMLoC: 5511.0 / 46,
	ChanOpsPerMLoC:      10120.0 / 46,
	WaitGroupPerMLoC:    4795.0 / 46,
	MapsPerMLoC:         273713.0 / 46,
}

// UberJavaProfile reproduces Table 1's Java column: 19 MLoC, 4162
// .start(), 2378 synchronized, 652 acquire+release, 624 lock+unlock,
// 1007 latch/barrier/phaser, and §4.4's 83392 maps.
var UberJavaProfile = Profile{
	Name:                "uber-java",
	ThreadStartPerMLoC:  4162.0 / 19,
	SynchronizedPerMLoC: 2378.0 / 19,
	AcquireRelPerMLoC:   652.0 / 19,
	JLockUnlockPerMLoC:  624.0 / 19,
	JGroupSyncPerMLoC:   1007.0 / 19,
	JMapsPerMLoC:        83392.0 / 19,
}

// File is one generated source file.
type File struct {
	Name    string
	Content string
}

// GenGoRepo emits a synthetic Go repository of approximately lines
// lines with construct counts matching p's densities. Counts are
// rounded to the nearest integer for the requested size, so the
// per-MLoC rates converge to the profile as lines grows.
func GenGoRepo(p Profile, lines int, seed int64) []File {
	rng := rand.New(rand.NewSource(seed))
	want := func(per float64) int {
		return int(per*float64(lines)/1e6 + 0.5)
	}
	b := newGoBuilder(rng)
	b.emitConstructs(
		want(p.GoStmtsPerMLoC),
		want(p.LockUnlockPerMLoC),
		want(p.RLockRUnlockPerMLoC),
		want(p.ChanOpsPerMLoC),
		want(p.WaitGroupPerMLoC),
		want(p.MapsPerMLoC),
	)
	b.pad(lines)
	return b.files()
}

const goFileTarget = 400 // lines per generated file, roughly

type goBuilder struct {
	rng   *rand.Rand
	out   []File
	cur   strings.Builder
	curN  int // lines in current file
	curFn int // functions emitted in current file
	nFile int
	total int
}

func newGoBuilder(rng *rand.Rand) *goBuilder {
	b := &goBuilder{rng: rng}
	b.openFile()
	return b
}

func (b *goBuilder) openFile() {
	b.cur.Reset()
	b.curN = 0
	b.curFn = 0
	hdr := fmt.Sprintf("// Code generated by corpusgen; synthetic service source.\npackage svc%04d\n\nimport \"sync\"\n\nvar _ = sync.Mutex{}\n", b.nFile)
	b.cur.WriteString(hdr)
	b.curN += strings.Count(hdr, "\n")
}

func (b *goBuilder) closeFile() {
	b.out = append(b.out, File{
		Name:    fmt.Sprintf("svc%04d/service.go", b.nFile),
		Content: b.cur.String(),
	})
	b.total += b.curN
	b.nFile++
}

func (b *goBuilder) write(s string) {
	b.cur.WriteString(s)
	b.curN += strings.Count(s, "\n")
	if b.curN >= goFileTarget {
		b.closeFile()
		b.openFile()
	}
}

func (b *goBuilder) fn(body string) {
	b.curFn++
	b.write(fmt.Sprintf("\nfunc handler%04d_%03d() {\n%s}\n", b.nFile, b.curFn, body))
}

// emitConstructs writes functions containing exactly the requested
// construct counts.
func (b *goBuilder) emitConstructs(goStmts, lockUnlock, rlockRUnlock, chanOps, wgs, maps int) {
	for goStmts > 0 {
		n := min(goStmts, 3)
		goStmts -= n
		var body strings.Builder
		for i := 0; i < n; i++ {
			body.WriteString("\tgo func() { _ = 1 + 1 }()\n")
		}
		b.fn(body.String())
	}
	for lockUnlock >= 2 {
		lockUnlock -= 2
		b.fn("\tvar mu sync.Mutex\n\tmu.Lock()\n\tdefer mu.Unlock()\n")
	}
	if lockUnlock == 1 {
		b.fn("\tvar mu sync.Mutex\n\tmu.Lock()\n")
	}
	for rlockRUnlock >= 2 {
		rlockRUnlock -= 2
		b.fn("\tvar mu sync.RWMutex\n\tmu.RLock()\n\tdefer mu.RUnlock()\n")
	}
	if rlockRUnlock == 1 {
		b.fn("\tvar mu sync.RWMutex\n\tmu.RLock()\n")
	}
	for chanOps >= 2 {
		chanOps -= 2
		b.fn("\tch := make(chan int, 1)\n\tch <- 1\n\t<-ch\n")
	}
	if chanOps == 1 {
		b.fn("\tch := make(chan int, 1)\n\tch <- 1\n")
	}
	for wgs > 0 {
		wgs--
		// One sync.WaitGroup type mention per instance, matching the
		// paper's "instances of WaitGroup" lookup.
		b.fn("\tvar wgLocal sync.WaitGroup\n\t_ = wgLocal\n")
	}
	for maps > 0 {
		n := min(maps, 5)
		maps -= n
		var body strings.Builder
		for i := 0; i < n; i++ {
			fmt.Fprintf(&body, "\tm%d := map[string]int{}\n\t_ = m%d\n", i, i)
		}
		b.fn(body.String())
	}
}

// pad fills the repository with plain sequential code up to the
// requested line count.
func (b *goBuilder) pad(lines int) {
	for b.total+b.curN < lines {
		b.fn("\tx := 0\n\tfor i := 0; i < 10; i++ {\n\t\tx += i\n\t}\n\t_ = x\n")
	}
	b.closeFile()
}

func (b *goBuilder) files() []File { return b.out }

// GenJavaRepo emits a synthetic Java repository of approximately lines
// lines matching p's Java densities.
func GenJavaRepo(p Profile, lines int, seed int64) []File {
	want := func(per float64) int {
		return int(per*float64(lines)/1e6 + 0.5)
	}
	starts := want(p.ThreadStartPerMLoC)
	syncs := want(p.SynchronizedPerMLoC)
	acqRel := want(p.AcquireRelPerMLoC)
	lockUnl := want(p.JLockUnlockPerMLoC)
	groups := want(p.JGroupSyncPerMLoC)
	maps := want(p.JMapsPerMLoC)

	var sb strings.Builder
	sb.WriteString("// Generated by corpusgen; synthetic Java service source.\npublic class Service {\n")
	n := 2
	emit := func(s string) {
		sb.WriteString(s)
		n += strings.Count(s, "\n")
	}
	for i := 0; i < starts; i++ {
		emit("  void spawn() { new Thread(this::run).start(); }\n")
	}
	for i := 0; i < syncs; i++ {
		emit("  synchronized void critical() { counter++; }\n")
	}
	for i := 0; i < acqRel/2; i++ {
		emit("  void gate() { sem.acquire(); sem.release(); }\n")
	}
	if acqRel%2 == 1 {
		emit("  void gateHalf() { sem.acquire(); }\n")
	}
	for i := 0; i < lockUnl/2; i++ {
		emit("  void locked() { mu.lock(); mu.unlock(); }\n")
	}
	if lockUnl%2 == 1 {
		emit("  void lockedHalf() { mu.lock(); }\n")
	}
	for i := 0; i < groups; i++ {
		// One group-construct mention per instance (the regex counts
		// each CountDownLatch/CyclicBarrier/Phaser token).
		emit("  CountDownLatch latch" + fmt.Sprint(i) + ";\n")
	}
	for i := 0; i < maps; i++ {
		emit("  HashMap<String, Integer> cache" + fmt.Sprint(i) + " = makeCache();\n")
	}
	for n < lines-1 {
		emit("  int helper() { return 42; }\n")
	}
	sb.WriteString("}\n")
	return []File{{Name: "Service.java", Content: sb.String()}}
}
