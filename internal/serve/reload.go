package serve

// Snapshot hot-reload.
//
// A refit goes live with zero downtime: the new snapshot is decoded and
// validated off to the side, a fresh artifact (vocab index, fold-in model
// with precomputed alias tables, hierarchy index, phrase index, advisor
// predictions) is built from it, and one atomic pointer swap publishes it.
// Handlers load the artifact pointer exactly once per request, so requests
// in flight across the swap finish on the artifact they started with and
// every response is internally consistent with a single generation.
//
// The generation contract: generations are assigned 1, 2, 3, ... in swap
// order; every /infer response and /healthz report carries the generation
// it answered from; identical requests answered by the same generation are
// bit-identical. Reload never blocks queries — a failed reload leaves the
// current artifact serving and surfaces the error on /healthz.

import (
	"errors"
	"io"
	"net/http"
	"os"
	"time"

	"lesm/internal/store"
)

// fileStamp is the cheap change detector for the polled snapshot file.
// store.Write lands snapshots by atomic rename, which refreshes mtime, so
// (size, mtime) is a reliable edge; /admin/reload force-reloads for the
// paranoid cases (sub-granularity mtime, same-size rewrite with a backdated
// clock).
type fileStamp struct {
	size  int64
	mtime int64 // UnixNano
}

func stampPath(path string) (fileStamp, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return fileStamp{}, err
	}
	return fileStamp{size: fi.Size(), mtime: fi.ModTime().UnixNano()}, nil
}

// Reload validates snap, builds its artifact and swaps it in as the next
// generation. On error the current artifact keeps serving. closer, when
// non-nil, is the snapshot's backing mapping; the server adopts it and
// releases it on Close. Pass a closer that holds only the mapping
// (store.Mapped.Mapping, as LoadSnapshot returns), not the Mapped itself:
// the server keeps it after the generation is replaced, and a closer that
// refers to the snapshot keeps the snapshot alive as long.
func (s *Server) Reload(snap *store.Snapshot, closer io.Closer) error {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	return s.reloadLocked(snap, closer)
}

func (s *Server) reloadLocked(snap *store.Snapshot, closer io.Closer) error {
	a, err := buildArtifact(snap, s.opt, s.nextGen+1, closer)
	if err != nil {
		return err
	}
	s.nextGen++
	// A successful swap clears any standing reload_error, whatever path
	// set it — the poller, /admin/reload, or a direct Reload call. This
	// is the ONE place the error is cleared: a reload that did not happen
	// (poller no-op tick) must not wipe an operator-visible failure.
	s.reloadErr.Store("")
	s.metrics.reloads.Add(1)
	old := s.cur.Swap(a)
	// Retire the replaced artifact's mapping instead of closing it: an
	// in-flight request that loaded the old pointer may still be reading
	// mapped memory. Only the closer is kept, and LoadSnapshot's closer
	// holds the mapping alone, so the old generation's decoded snapshot
	// and artifact are garbage once its last request finishes. What stays
	// is address space over clean, evictable file pages, released in
	// Close.
	if old != nil && old.closer != nil {
		s.mu.Lock()
		s.retired = append(s.retired, old.closer)
		s.mu.Unlock()
	}
	return nil
}

// ReloadFromPath reloads Options.SnapshotPath if its file stamp changed
// since the last load (or unconditionally with force). It reports whether
// a swap happened. Decode errors leave the current artifact serving.
func (s *Server) ReloadFromPath(force bool) (bool, error) {
	path := s.opt.SnapshotPath
	if path == "" {
		return false, errors.New("serve: no snapshot path configured")
	}
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	st, err := stampPath(path)
	if err != nil {
		return false, err
	}
	if !force && st == s.lastStamp {
		return false, nil
	}
	snap, closer, err := LoadSnapshot(path, s.opt.MMap)
	if err != nil {
		return false, err
	}
	if err := s.reloadLocked(snap, closer); err != nil {
		if closer != nil {
			closer.Close()
		}
		return false, err
	}
	s.lastStamp = st
	return true, nil
}

// LoadSnapshot reads a snapshot from disk, through the zero-copy mapping
// when mmap is set (the returned closer then releases the mapping and
// refers to nothing else — store.Mapped.Mapping — so a server holding it
// after a swap does not keep the snapshot alive; nil for the heap path).
// It is the one load routine both the daemon's initial load (cmd/lesmd,
// which hands the closer to Server.AdoptCloser) and every hot reload go
// through, so the two can never diverge.
func LoadSnapshot(path string, mmap bool) (*store.Snapshot, io.Closer, error) {
	if mmap {
		m, err := store.OpenMapped(path)
		if err != nil {
			return nil, nil, err
		}
		return m.Snapshot(), m.Mapping(), nil
	}
	snap, err := store.Read(path)
	if err != nil {
		return nil, nil, err
	}
	return snap, nil, nil
}

// pollReload is the background mtime/size poller: a refit written over the
// snapshot path (atomically — store.Write) goes live within one poll
// interval with no operator action. Errors never stop the poller or the
// server; the latest one is surfaced on /healthz as reload_error.
//
// Failures back off exponentially: a snapshot that stays broken (corrupt
// file, yanked volume) is retried every 2nd, 4th, ... up to every 32nd
// tick instead of burning a decode attempt — and an error-log line — per
// interval. One success resets the cadence. The stamp check makes an
// unchanged-but-broken file cheap to skip anyway, but a *corrupt* file is
// re-decoded every non-skipped tick (its stamp never graduates to
// lastStamp), which is exactly the expensive case the backoff bounds.
func (s *Server) pollReload() {
	defer s.bg.Done()
	t := time.NewTicker(s.opt.ReloadPoll)
	defer t.Stop()
	failures, skip := 0, 0
	for {
		select {
		case <-s.ctx.Done():
			return
		case <-t.C:
			if skip > 0 {
				skip--
				continue
			}
			// Success (including the did-nothing kind) does not touch
			// reloadErr here — only an actual swap clears it, in
			// reloadLocked, so a standing failure stays visible on
			// /healthz until a reload really lands.
			if _, err := s.ReloadFromPath(false); err != nil {
				s.reloadErr.Store(err.Error())
				s.metrics.reloadFailures.Add(1)
				if failures < 5 {
					failures++
				}
				skip = 1<<failures - 1 // 1, 3, 7, 15, then 31 skipped ticks
			} else {
				failures = 0
			}
		}
	}
}

// handleAdminReload is POST /admin/reload: an unconditional synchronous
// reload of the configured snapshot path, for operators who just landed a
// refit and do not want to wait out the poll interval (or who run without
// a poller).
func (s *Server) handleAdminReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	if s.opt.SnapshotPath == "" {
		writeErr(w, http.StatusConflict, "no snapshot path configured (start the server with a snapshot path to enable reload)")
		return
	}
	reloaded, err := s.ReloadFromPath(true)
	if err != nil {
		s.reloadErr.Store(err.Error())
		s.metrics.reloadFailures.Add(1)
		writeErr(w, http.StatusInternalServerError, "reload failed (still serving generation %d): %v", s.Generation(), err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"reloaded": reloaded, "generation": s.Generation(),
	})
}
