package serve

import (
	"fmt"
	"net/http"

	"xsketch/internal/catalog"
	"xsketch/internal/httpfront"
	core "xsketch/internal/xsketch"
)

// SwapSketch atomically replaces the synopsis served under name. The name
// must already be served — the route set is fixed at New; a swap changes
// what a name answers with, never which names exist. In-flight estimates
// that loaded the previous state finish on it untouched (its estimator and
// plan caches retire with it); requests admitted after the store see only
// the new synopsis. Safe for concurrent use with request handling.
func (s *Server) SwapSketch(name, source string, sk *core.Sketch) error {
	if sk == nil {
		return fmt.Errorf("serve: swap of %q with nil sketch", name)
	}
	e, ok := s.entries[name]
	if !ok {
		return fmt.Errorf("serve: unknown sketch %q (serving %v)", name, s.names)
	}
	e.state.Store(newSketchState(source, sk))
	e.swaps.Add(1)
	s.log.Info("sketch swapped",
		"sketch", name,
		"source", source,
		"nodes", sk.Syn.NumNodes(),
		"edges", sk.Syn.NumEdges(),
		"size_bytes", sk.SizeBytes(),
		"swaps", e.swaps.Load(),
	)
	return nil
}

// Swaps reports how many hot swaps the named sketch has received (0 for
// unknown names).
func (s *Server) Swaps(name string) uint64 {
	if e, ok := s.entries[name]; ok {
		return e.swaps.Load()
	}
	return 0
}

// ReloadFromCatalog re-opens one served name from a catalog file and swaps
// it in: from path when given, otherwise from the configured catalog
// directory. The decode happens entirely off to the side — on any error
// the served state is untouched.
func (s *Server) ReloadFromCatalog(name, path string) (catalog.Info, error) {
	if _, ok := s.entries[name]; !ok {
		return catalog.Info{}, fmt.Errorf("serve: unknown sketch %q (serving %v)", name, s.names)
	}
	var (
		sk   *core.Sketch
		info catalog.Info
		err  error
	)
	if path != "" {
		sk, info, err = catalog.Open(path)
	} else if s.cfg.CatalogDir != "" {
		sk, info, err = catalog.OpenByName(s.cfg.CatalogDir, name)
	} else {
		return catalog.Info{}, fmt.Errorf("serve: no reload path given and no catalog directory configured")
	}
	if err != nil {
		return catalog.Info{}, err
	}
	if err := s.SwapSketch(name, "catalog:"+info.Path, sk); err != nil {
		return catalog.Info{}, err
	}
	return info, nil
}

// reloadRequest is the body of POST /admin/reload. A body of `{}` reloads
// the only served sketch from the catalog directory.
type reloadRequest struct {
	// Sketch names the served entry to swap; optional when the server
	// serves exactly one.
	Sketch string `json:"sketch"`
	// Path is an explicit catalog file to load. Empty means the entry of
	// the same name in the server's catalog directory.
	Path string `json:"path"`
}

// reloadResponse is the body of a successful POST /admin/reload.
type reloadResponse struct {
	Sketch    string `json:"sketch"`
	Path      string `json:"path"`
	Nodes     int    `json:"nodes"`
	Edges     int    `json:"edges"`
	SizeBytes int64  `json:"size_bytes"`
	Swaps     uint64 `json:"swaps"`
	TraceID   string `json:"trace_id"`
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	tid := httpfront.TraceID(r)
	var req reloadRequest
	if !s.decodeBody(w, r, tid, &req) {
		return
	}
	name := req.Sketch
	if name == "" {
		if len(s.names) != 1 {
			httpfront.WriteError(w, http.StatusBadRequest, tid,
				fmt.Errorf("multiple sketches served, name one of %v", s.names))
			return
		}
		name = s.names[0]
	}
	info, err := s.ReloadFromCatalog(name, req.Path)
	if err != nil {
		s.m.reloadErrs.Inc()
		code := http.StatusUnprocessableEntity
		if _, ok := s.entries[name]; !ok {
			code = http.StatusNotFound
		}
		httpfront.WriteError(w, code, tid, err)
		return
	}
	httpfront.WriteJSON(w, http.StatusOK, reloadResponse{
		Sketch:    name,
		Path:      info.Path,
		Nodes:     info.Nodes,
		Edges:     info.Edges,
		SizeBytes: info.ModelBytes,
		Swaps:     s.Swaps(name),
		TraceID:   tid,
	})
}
