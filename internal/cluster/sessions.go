package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"vcprof/internal/live"
	"vcprof/internal/obs"
)

// Live-session routing. Jobs are stateless and content-addressed, so
// any shard can serve any attempt; sessions carry encoder state, so the
// gate pins each session to one shard (sticky by session id over the
// same consistent-hash ring) and forwards feeds there. When the pinned
// shard dies mid-stream, the gate re-anchors: it re-creates the session
// on the next ring candidate from the last resume token it holds — a
// GOP-boundary snapshot of the modeled timeline — and replays the
// arrival watermark. Tokens resume byte-identically and the watermark
// protocol is idempotent, so a mid-stream failover changes which shard
// encodes the remaining GOPs but not one byte of what the client folds.

// gateSession is one routed live session.
type gateSession struct {
	id       string // gate-facing id; also the ring key for stickiness
	trace    string // hop-trace id, derived from the spec key at create
	mu       sync.Mutex
	spec     live.SessionSpec
	shard    string // pinned shard name
	remoteID string // shard-side session id
	fed      int    // highest arrival watermark accepted from the client
	lastGOP  int    // next GOP index the client has not yet received
	resume   live.ResumeToken
	done     bool
}

// gateSessionTable owns the gate's routed sessions.
type gateSessionTable struct {
	mu  sync.Mutex
	seq uint64
	m   map[string]*gateSession

	failovers atomic.Uint64
	opened    atomic.Uint64
}

func newGateSessionTable() *gateSessionTable {
	return &gateSessionTable{m: make(map[string]*gateSession)}
}

// sessionWire mirrors vcprofd's session wire forms (the gate speaks the
// daemon protocol shard-side and re-exposes it client-side unchanged).
type sessionWire struct {
	ID     string           `json:"id"`
	GOPs   []live.GOPResult `json:"gops"`
	Stats  live.Stats       `json:"stats"`
	Resume live.ResumeToken `json:"resume"`
}

type sessionCreateWire struct {
	ID      string           `json:"id"`
	Key     string           `json:"key"`
	Resumed bool             `json:"resumed"`
	Spec    live.SessionSpec `json:"spec"`
	// Shard names the serving backend (gate responses only; a daemon
	// answering directly leaves it empty). Harnesses use it to aim
	// chaos at the pinned shard; the trace id is what clients pass to
	// /v1/cluster/trace.
	Shard string `json:"shard,omitempty"`
	Trace string `json:"trace,omitempty"`
}

type sessionCreateBody struct {
	Spec   live.SessionSpec  `json:"spec"`
	Resume *live.ResumeToken `json:"resume,omitempty"`
}

type sessionFeedBody struct {
	Fed int  `json:"fed"`
	EOS bool `json:"eos,omitempty"`
}

func (r *Router) handleSessionCreate(w http.ResponseWriter, req *http.Request) {
	r.st.mu.Lock()
	draining := r.st.draining
	r.st.mu.Unlock()
	if draining {
		writeError(w, http.StatusServiceUnavailable, "gate is draining")
		return
	}
	var body sessionCreateBody
	dec := json.NewDecoder(http.MaxBytesReader(w, req.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&body); err != nil {
		writeError(w, http.StatusBadRequest, "bad session spec: %v", err)
		return
	}
	if body.Resume != nil {
		writeError(w, http.StatusBadRequest, "resume tokens are gate-internal; create a fresh session")
		return
	}
	key, err := body.Spec.Key()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	r.sessions.mu.Lock()
	r.sessions.seq++
	gs := &gateSession{id: fmt.Sprintf("%.16s-g%04x", key, r.sessions.seq),
		trace: traceFromRequest(req, obs.SessionTraceID(key)), spec: body.Spec}
	r.sessions.m[gs.id] = gs
	r.sessions.mu.Unlock()

	gs.mu.Lock()
	defer gs.mu.Unlock()
	created, err := r.anchorSessionLocked(req.Context(), gs, nil)
	if err != nil {
		r.sessions.mu.Lock()
		delete(r.sessions.m, gs.id)
		r.sessions.mu.Unlock()
		writeError(w, http.StatusBadGateway, "%v", err)
		return
	}
	r.sessions.opened.Add(1)
	// Mirror the deterministic open hop from the spec key (the shard
	// emits the identical tuple; a later kill cannot erase the fact the
	// stream opened) and record the volatile anchor placement.
	r.hops.Emit(obs.HopEvent{Trace: gs.trace, Kind: obs.HopSessionOpen, Arg: shortHopArg(key)})
	r.hops.Emit(obs.HopEvent{Trace: gs.trace, Kind: obs.HopRoute,
		Arg: gs.shard, StartMS: time.Now().UnixMilli()})
	writeJSON(w, http.StatusCreated, sessionCreateWire{
		ID: gs.id, Key: key, Spec: created.Spec, Shard: gs.shard, Trace: gs.trace,
	})
}

// anchorSessionLocked creates (or, with a token, re-creates) gs on the best
// untried live shard, walking the sticky candidate order. Caller holds
// gs.mu.
func (r *Router) anchorSessionLocked(ctx context.Context, gs *gateSession, tok *live.ResumeToken) (*sessionCreateWire, error) {
	payload, err := json.Marshal(sessionCreateBody{Spec: gs.spec, Resume: tok})
	if err != nil {
		return nil, err
	}
	tried := map[string]bool{}
	var firstErr error
	for {
		name, ok := r.nextCandidate(gs.id, tried)
		if !ok {
			if firstErr == nil {
				firstErr = fmt.Errorf("no live shard for session %s", gs.id)
			}
			return nil, firstErr
		}
		tried[name] = true
		sh, _, ok := r.reg.lookup(name)
		if !ok {
			continue
		}
		created, err := postSessionJSON[sessionCreateWire](ctx, r.client, sh.URL+"/v1/sessions", payload, http.StatusCreated, gs.trace)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			r.reg.observeFailure(name, r.cfg.ProbeFails)
			continue
		}
		r.reg.observeSuccess(name)
		gs.shard = name
		gs.remoteID = created.ID
		return created, nil
	}
}

func (r *Router) handleSessionFeed(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	r.sessions.mu.Lock()
	gs, ok := r.sessions.m[id]
	r.sessions.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, "unknown session %q", id)
		return
	}
	var body sessionFeedBody
	dec := json.NewDecoder(http.MaxBytesReader(w, req.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&body); err != nil {
		writeError(w, http.StatusBadRequest, "bad feed request: %v", err)
		return
	}

	gs.mu.Lock()
	defer gs.mu.Unlock()
	if gs.done {
		// Closed (end of stream or DELETE) while this feed waited for
		// the lock; feeding on would re-anchor a session nobody holds.
		writeError(w, http.StatusNotFound, "session %q closed", id)
		return
	}
	if body.Fed > gs.fed {
		gs.fed = body.Fed
	}
	payload, err := json.Marshal(sessionFeedBody{Fed: gs.fed, EOS: body.EOS})
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}

	feedOnce := func() (*sessionWire, error) {
		sh, alive, ok := r.reg.lookup(gs.shard)
		if !ok || !alive {
			return nil, fmt.Errorf("shard %s down", gs.shard)
		}
		return postSessionJSON[sessionWire](req.Context(), r.client,
			sh.URL+"/v1/sessions/"+gs.remoteID+"/frames", payload, http.StatusOK, gs.trace)
	}

	resp, err := feedOnce()
	if err != nil {
		// The pinned shard failed mid-stream: re-anchor from the last
		// GOP-boundary token and replay the watermark. The resumed
		// engine re-encodes exactly the GOPs the client has not seen.
		r.reg.observeFailure(gs.shard, r.cfg.ProbeFails)
		r.sessions.failovers.Add(1)
		tok := gs.resume
		if _, aerr := r.anchorSessionLocked(req.Context(), gs, &tok); aerr != nil {
			writeError(w, http.StatusBadGateway, "session failover: %v (after %v)", aerr, err)
			return
		}
		// The re-anchor hop names the new shard and carries the token's
		// GOP index — where in the stream the encode picked back up.
		r.hops.Emit(obs.HopEvent{Trace: gs.trace, Kind: obs.HopReAnchor,
			Seq: uint64(tok.GOP), Arg: gs.shard, StartMS: time.Now().UnixMilli()})
		resp, err = feedOnce()
		if err != nil {
			writeError(w, http.StatusBadGateway, "session feed after failover: %v", err)
			return
		}
	}

	// Track progress and de-duplicate: a re-anchored shard can only
	// re-encode from the token's GOP, so anything below the client's
	// floor is a replay and must not be returned twice.
	out := resp.GOPs[:0]
	for _, g := range resp.GOPs {
		if g.Index < gs.lastGOP {
			continue
		}
		out = append(out, g)
		gs.lastGOP = g.Index + 1
		// Mirror each first-delivery GOP as a deterministic hop: index,
		// digest prefix and modeled cost are content, identical no matter
		// which shard (original or re-anchored) encoded it.
		r.hops.Emit(obs.HopEvent{Trace: gs.trace, Kind: obs.HopGOP,
			Seq: uint64(g.Index), Arg: shortHopArg(g.Digest), Dur: g.Insts})
	}
	resp.GOPs = out
	gs.resume = resp.Resume
	gs.done = resp.Stats.Done
	if gs.done {
		r.sessions.mu.Lock()
		delete(r.sessions.m, id)
		r.sessions.mu.Unlock()
	}
	resp.ID = id
	writeJSON(w, http.StatusOK, resp)
}

func (r *Router) handleSessionStats(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	r.sessions.mu.Lock()
	gs, ok := r.sessions.m[id]
	r.sessions.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, "unknown session %q", id)
		return
	}
	gs.mu.Lock()
	shard, remoteID := gs.shard, gs.remoteID
	gs.mu.Unlock()
	sh, _, ok := r.reg.lookup(shard)
	if !ok {
		writeError(w, http.StatusBadGateway, "shard %s unknown", shard)
		return
	}
	body, err := getBytes(req.Context(), r.client, sh.URL+"/v1/sessions/"+remoteID+"/stats")
	if err != nil {
		writeError(w, http.StatusBadGateway, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

// handleSessionDelete closes a routed session: it forwards the DELETE
// to the pinned shard, which frees the shard's session slot, and drops
// the gate's entry. A shard that no longer holds the session (404) or
// is dead has nothing left to free; any other shard failure answers 502
// and keeps the entry, so the client can retry.
func (r *Router) handleSessionDelete(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	r.sessions.mu.Lock()
	gs, ok := r.sessions.m[id]
	r.sessions.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, "unknown session %q", id)
		return
	}
	gs.mu.Lock()
	defer gs.mu.Unlock()
	if gs.done {
		writeError(w, http.StatusNotFound, "unknown session %q", id)
		return
	}
	if sh, alive, ok := r.reg.lookup(gs.shard); ok && alive {
		code, err := deleteURL(req.Context(), r.client, sh.URL+"/v1/sessions/"+gs.remoteID)
		if err == nil && code != http.StatusNoContent && code != http.StatusNotFound {
			err = fmt.Errorf("HTTP %d", code)
		}
		if err != nil {
			writeError(w, http.StatusBadGateway, "session delete on %s: %v", gs.shard, err)
			return
		}
	}
	gs.done = true
	r.sessions.mu.Lock()
	delete(r.sessions.m, id)
	r.sessions.mu.Unlock()
	w.WriteHeader(http.StatusNoContent)
}

// deleteURL issues a DELETE and returns the response status.
func deleteURL(ctx context.Context, client HTTPClient, url string) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, url, nil)
	if err != nil {
		return 0, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, nil
}

// postSessionJSON posts a payload and decodes a typed response,
// treating any status other than want as an error (5xx and transport
// failures trigger failover upstream; 4xx surface verbatim).
func postSessionJSON[T any](ctx context.Context, client HTTPClient, url string, payload []byte, want int, trace string) (*T, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if trace != "" {
		req.Header.Set(obs.TraceHeader, trace)
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 32<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	var out T
	if err := json.Unmarshal(body, &out); err != nil {
		return nil, err
	}
	return &out, nil
}
