package core

import (
	"context"

	"repro/internal/compiler"
	"repro/internal/fcache"
	"repro/internal/parser"
)

// MasterFrontend runs the master's phase-1 leg for the external tests.
func MasterFrontend(ctx context.Context, cache *fcache.Cache, h fcache.SourceHash, file string, src []byte, outline *parser.Outline, workers int) (*fcache.FrontendEntry, compiler.FrontendTiming, error) {
	return masterFrontend(ctx, cache, h, file, src, outline, workers)()
}
