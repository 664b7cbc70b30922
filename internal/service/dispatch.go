package service

// The shard dispatcher: how a coordinator executes one campaign across
// its workers while keeping the results byte-identical to a local run.
//
// A coordinator campaign is an ordinary sweep.Engine campaign whose
// Exec ships each shard to a worker instead of running it in process.
// The engine still plans the shards, runs the in-flight slots, folds
// results into the root aggregators in shard-index order, reports
// progress, and returns the first error in shard order — exactly as
// for a standalone job. The Exec only picks a node, POSTs the shard,
// checks the answer against the shard it asked for, and rebuilds the
// shard's [Prob, Collector] aggregates from the transported form (the
// unit's sweep.UnitStat plus a binary corpus delta).
//
// Nodes are handed out through a token channel holding each campaign
// node MaxInflight times. A dispatch that fails, or whose answer is
// rejected, retires its node: the node's in-flight posts are
// cancelled, its tokens are dropped as they surface, and the shard is
// retried on another node. A heartbeat watchdog that lives as long as
// the campaign retires nodes whose beats go stale. Once no node is
// left, every remaining shard fails with "every worker died
// mid-campaign". One engine goroutine owns each shard from dispatch
// to result and runs its retries one after another, so a shard is
// folded exactly once however many nodes die under it.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"gorace/internal/corpus"
	"gorace/internal/sweep"
)

// maxShardResponse caps a worker's answer to one shard dispatch. An
// answer is one unit's stats plus a corpus delta of the shard's
// deduplicated records — kilobytes for the pattern corpus — so the
// cap only bounds what a broken or hostile worker can make the
// coordinator buffer.
const maxShardResponse = 16 << 20

// shardRequest is the POST /v1/shards body: everything a worker needs
// to execute one shard, self-contained so any worker can serve it.
type shardRequest struct {
	// RunID labels the shard's collected records (the campaign's
	// effective run id).
	RunID string `json:"runId"`
	// Spec is the validated, normalized campaign spec; the worker
	// expands it to the same unit list the coordinator planned over.
	Spec JobSpec `json:"spec"`
	// ShardIdx is the shard's index in the campaign plan (echoed back
	// and checked).
	ShardIdx int `json:"shardIdx"`
	// Shard locates the seed slice within the campaign's units.
	Shard sweep.Shard `json:"shard"`
}

// shardResponse is the worker's answer: the shard's aggregates in
// transportable form.
type shardResponse struct {
	// ShardIdx echoes the request.
	ShardIdx int `json:"shardIdx"`
	// Stat is the shard's tally of its one unit; the shard's run
	// counts and its collector's counts derive from it.
	Stat sweep.UnitStat `json:"stat"`
	// Corpus is a binary corpus delta (delta.go framing) holding the
	// shard's deduplicated records — the exact-fidelity transport for
	// stacks and race hashes.
	Corpus []byte `json:"corpus"`
}

// campaign is one distributed campaign's dispatch state: the node set
// taken at its start and the tokens that bound in-flight dispatches.
type campaign struct {
	c     *cluster
	runID string
	spec  JobSpec
	units []sweep.Unit
	index map[sweep.Shard]int // plan position, sent as ShardIdx
	nodes map[string]*campaignNode

	tokens  chan *campaignNode // each node MaxInflight times
	allDead chan struct{}      // closed once no node is left

	mu       sync.Mutex
	live     int
	deathErr error // why allDead closed; written before the close
}

// campaignNode is one worker as this campaign sees it.
type campaignNode struct {
	url    string
	ctx    context.Context // cancelled when the node is retired
	cancel context.CancelFunc
}

// campaignEngine returns the engine one coordinator campaign runs on —
// one in-flight slot per token, the configured shard size, and the
// dispatching Exec — plus a stop func that ends the campaign's
// watchdog; call it once the campaign returns. The node set is the
// live workers at this call: workers joining later serve the next
// campaign.
func (c *cluster) campaignEngine(runID string, spec JobSpec, units []sweep.Unit) (*sweep.Engine, func()) {
	urls := c.reg.liveURLs()
	cp := &campaign{
		c: c, runID: runID, spec: spec, units: units,
		index:   make(map[sweep.Shard]int),
		nodes:   make(map[string]*campaignNode, len(urls)),
		tokens:  make(chan *campaignNode, len(urls)*c.cfg.MaxInflight),
		allDead: make(chan struct{}),
		live:    len(urls),
	}
	for i, sh := range sweep.Plan(units, c.cfg.ShardRuns) {
		cp.index[sh] = i
	}
	for _, u := range urls {
		ctx, cancel := context.WithCancel(context.Background())
		n := &campaignNode{url: u, ctx: ctx, cancel: cancel}
		cp.nodes[u] = n
		for k := 0; k < c.cfg.MaxInflight; k++ {
			cp.tokens <- n
		}
	}
	if len(urls) == 0 {
		cp.deathErr = ErrNoWorkers
		close(cp.allDead)
	}

	watchCtx, stopWatch := context.WithCancel(context.Background())
	watched := make(chan struct{})
	go func() {
		defer close(watched)
		cp.watch(watchCtx)
	}()
	stop := func() {
		stopWatch()
		<-watched
		for _, n := range cp.nodes {
			n.cancel()
		}
	}
	engine := sweep.New(
		sweep.WithParallelism(len(urls)*c.cfg.MaxInflight),
		sweep.WithShardRuns(c.cfg.ShardRuns),
		sweep.WithExec(cp.exec),
	)
	return engine, stop
}

// exec is the campaign's sweep.Exec: dispatch the shard to a live
// node, retiring nodes and retrying until one answers acceptably or
// none is left.
func (cp *campaign) exec(ctx context.Context, sh sweep.Shard) ([]sweep.Aggregator, sweep.Stats, error) {
	for {
		var n *campaignNode
		select {
		case n = <-cp.tokens:
		case <-cp.allDead:
			return nil, sweep.Stats{}, cp.deathErr
		case <-ctx.Done():
			return nil, sweep.Stats{}, ctx.Err()
		}
		if n.ctx.Err() != nil {
			continue // a retired node's token: drop it
		}
		aggs, stats, err := cp.postShard(ctx, n, sh)
		if err == nil {
			cp.tokens <- n // never blocks: the token came from this channel
			cp.c.reg.addDone(n.url)
			return aggs, stats, nil
		}
		if ctx.Err() != nil {
			return nil, sweep.Stats{}, ctx.Err()
		}
		cp.retire(n, err)
	}
}

// retire takes n out of the campaign (once): its in-flight posts are
// cancelled, the registry marks it dead, and if it was the last node
// every waiting dispatch fails.
func (cp *campaign) retire(n *campaignNode, cause error) {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	if n.ctx.Err() != nil {
		return
	}
	n.cancel()
	if cp.c.reg.markDead(n.url) {
		cp.c.log.Printf("cluster: worker %s dead, re-dispatching its shards: %v", n.url, cause)
	}
	if cp.live--; cp.live == 0 {
		cp.deathErr = fmt.Errorf("service: every worker died mid-campaign (last %s: %v)", n.url, cause)
		close(cp.allDead)
	}
}

// watch is the heartbeat watchdog: every HeartbeatEvery it retires
// campaign nodes whose last beat has gone stale, until ctx ends.
func (cp *campaign) watch(ctx context.Context) {
	t := time.NewTicker(cp.c.cfg.HeartbeatEvery)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			for _, u := range cp.c.reg.staleLive(time.Now()) {
				if n, ok := cp.nodes[u]; ok {
					cp.retire(n, errors.New("heartbeat stale"))
				}
			}
		}
	}
}

// postShard dispatches one shard to node n and rebuilds the shard's
// aggregates from its checked answer. Retiring n cancels the post.
func (cp *campaign) postShard(ctx context.Context, n *campaignNode, sh sweep.Shard) ([]sweep.Aggregator, sweep.Stats, error) {
	idx := cp.index[sh]
	body, err := json.Marshal(shardRequest{RunID: cp.runID, Spec: cp.spec, ShardIdx: idx, Shard: sh})
	if err != nil {
		return nil, sweep.Stats{}, err
	}
	ctx, cancel := context.WithTimeout(ctx, cp.c.cfg.ShardTimeout)
	defer cancel()
	defer context.AfterFunc(n.ctx, cancel)()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, n.url+"/v1/shards", bytes.NewReader(body))
	if err != nil {
		return nil, sweep.Stats{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := cp.c.client.Do(req)
	if err != nil {
		return nil, sweep.Stats{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, sweep.Stats{}, fmt.Errorf("worker %s shard %d: status %d: %s",
			n.url, idx, resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	aggs, stats, err := readShardResponse(resp.Body, cp.runID, cp.units[sh.UnitIdx].ID, sh, idx)
	if err != nil {
		return nil, sweep.Stats{}, fmt.Errorf("worker %s shard %d: %w", n.url, idx, err)
	}
	return aggs, stats, nil
}

// readShardResponse decodes a worker's answer to shard idx (sh, whose
// unit is unitID), accepts it only if it covers exactly that shard, and
// rebuilds the shard's [Prob, Collector] aggregates — the remote mirror
// of sweep.RunShard's result. The shard's run counts and the
// collector's execution and report counts all derive from the one
// UnitStat. Everything here is untrusted input: the body is capped at
// maxShardResponse, and a stat or records that could not have come
// from executing sh are rejected.
func readShardResponse(r io.Reader, runID, unitID string, sh sweep.Shard, idx int) ([]sweep.Aggregator, sweep.Stats, error) {
	body, err := io.ReadAll(io.LimitReader(r, maxShardResponse+1))
	if err != nil {
		return nil, sweep.Stats{}, err
	}
	if len(body) > maxShardResponse {
		return nil, sweep.Stats{}, fmt.Errorf("answer exceeds %d bytes", maxShardResponse)
	}
	var resp shardResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, sweep.Stats{}, fmt.Errorf("decode: %w", err)
	}
	if err := resp.check(unitID, sh, idx); err != nil {
		return nil, sweep.Stats{}, err
	}
	x, err := corpus.ReadDelta(bytes.NewReader(resp.Corpus))
	if err != nil {
		return nil, sweep.Stats{}, err
	}
	st := resp.Stat
	var counted uint64
	for _, rec := range x.Records {
		if rec.Count == 0 || rec.Count > uint64(st.Races)-counted {
			return nil, sweep.Stats{}, fmt.Errorf("record %q counts %d reports past the shard's %d", rec.Key, rec.Count, st.Races)
		}
		counted += rec.Count
	}
	if counted != uint64(st.Races) {
		return nil, sweep.Stats{}, fmt.Errorf("records hold %d reports, the shard reported %d", counted, st.Races)
	}
	// A record of any other unit fails here: the map knows only sh's.
	coll, err := corpus.NewCollectorFromRecords(runID, st.Runs, st.Races, x.Records,
		map[string]int{unitID: sh.UnitIdx})
	if err != nil {
		return nil, sweep.Stats{}, err
	}
	stats := sweep.Stats{Units: 1, Shards: 1, Runs: st.Runs, Racy: st.Detected}
	return []sweep.Aggregator{sweep.NewProbOf(sh.UnitIdx, st), coll}, stats, nil
}

// check accepts an answer only if it could have come from executing
// shard idx: the echoed index, a stat of sh's unit, 0 ≤ Detected ≤
// Runs ≤ sh.N, 0 ≤ LeakedRuns ≤ Runs, and Races ≥ 0. The work counters
// (Accesses … FastReads) go unchecked: no job result reads them.
func (r *shardResponse) check(unitID string, sh sweep.Shard, idx int) error {
	s := r.Stat
	switch {
	case r.ShardIdx != idx:
		return fmt.Errorf("answered shard %d", r.ShardIdx)
	case s.Unit != unitID:
		return fmt.Errorf("stat for unit %q, shard is unit %q", s.Unit, unitID)
	case s.Detected < 0 || s.Detected > s.Runs || s.Runs > sh.N:
		return fmt.Errorf("runs %d detected %d do not fit a %d-seed shard", s.Runs, s.Detected, sh.N)
	case s.LeakedRuns < 0 || s.LeakedRuns > s.Runs || s.Races < 0:
		return fmt.Errorf("leaked %d races %d do not fit %d runs", s.LeakedRuns, s.Races, s.Runs)
	}
	return nil
}
