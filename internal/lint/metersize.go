package lint

import (
	"go/ast"

	"dynopt/internal/lint/analysis"
)

// meterSizePackages are the operator layers where per-row size walks are
// banned: metering there must go through the cached Relation.ByteSize /
// Relation.PartBytes / Dataset size-cache accessors, computed at most once
// per relation. The size-cache seeding layer (internal/types,
// internal/storage, internal/stats) computes sizes by definition and is out
// of scope.
var meterSizePackages = []string{"internal/engine", "internal/core", "internal/optimizer"}

// sizeWalks are the per-row size walks the rule covers: Tuple/Value.EncodedSize,
// its projected form EncodedSizeCols (the size of a stored row over a
// chunk's column map), and the legacy bytesOf.
var sizeWalks = map[string]bool{"EncodedSize": true, "EncodedSizeCols": true, "bytesOf": true}

// MeterSize enforces the cached-size metering rule: no direct
// Tuple/Value.EncodedSize, Tuple.EncodedSizeCols (or legacy bytesOf) calls
// in operator packages. The one pass that legitimately walks rows to seed a
// size cache or a metering counter carries //dynopt:size-ok <reason>.
var MeterSize = &analysis.Analyzer{
	Name: "metersize",
	Doc: "operator packages must meter via cached Relation.ByteSize/PartBytes/Dataset sizes, " +
		"not direct EncodedSize/EncodedSizeCols walks; mark sanctioned cache-seeding passes //dynopt:size-ok <reason>",
	Run: runMeterSize,
}

func runMeterSize(pass *analysis.Pass) (any, error) {
	inScope := false
	for _, p := range meterSizePackages {
		if pathHasSuffix(pass.PkgPath, p) {
			inScope = true
			break
		}
	}
	if !inScope {
		return nil, nil
	}
	for _, f := range pass.Files {
		dirs := parseDirectives(pass.Fset, f)
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			name := ""
			switch fun := call.Fun.(type) {
			case *ast.SelectorExpr:
				name = fun.Sel.Name
			case *ast.Ident:
				name = fun.Name
			}
			if !sizeWalks[name] {
				return true
			}
			if dir, ok := dirs.covering(call.Pos(), dirSizeOK); ok {
				if dir.reason == "" {
					pass.Reportf(dir.pos, "//dynopt:size-ok needs a reason")
				}
				return true
			}
			pass.Reportf(call.Pos(),
				"direct %s call in an operator package: meter via the cached Relation.ByteSize/PartBytes or Dataset sizes, or mark the cache-seeding pass //dynopt:size-ok <reason>", name)
			return true
		})
	}
	return nil, nil
}
