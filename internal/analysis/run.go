package analysis

import (
	"fmt"
	"strings"
)

// Scope restricts where an analyzer's findings apply. The analyzers
// themselves are pure pattern detectors; policy about which packages
// each invariant governs lives here, in the suite configuration, so
// the same analyzer can run unrestricted under analysistest.
type Scope struct {
	// Paths, when non-empty, limits the analyzer to packages whose
	// import path equals an entry or is under it (entry + "/...").
	Paths []string
	// SkipMain drops findings in main packages (command wiring is
	// allowed to construct root contexts, parse wall-clock flags...).
	SkipMain bool
}

func (s Scope) applies(pkg *Package) bool {
	if s.SkipMain && pkg.Name == "main" {
		return false
	}
	if len(s.Paths) == 0 {
		return true
	}
	for _, p := range s.Paths {
		if pkg.PkgPath == p || strings.HasPrefix(pkg.PkgPath, p+"/") {
			return true
		}
	}
	return false
}

// Result is everything one driver run produced.
type Result struct {
	// Diagnostics are the unsuppressed findings, in positional order.
	Diagnostics []Diagnostic
	// UnusedAllows are well-formed //lint:allow comments that
	// suppressed no finding of ANY analyzer that ran — stale
	// suppressions (or typo'd analyzer names). Only meaningful when
	// the full suite ran; a subset run under -run makes other
	// analyzers' allows look unused.
	UnusedAllows []Diagnostic
}

// Run applies each analyzer to each in-scope package, filters
// //lint:allow-suppressed findings, appends a finding for every
// malformed allow comment, and returns the remainder in positional
// order with the unused-suppression report. Every analyzer sees one
// package at a time, so packages are analyzed in the order given.
// Analyzer errors (not findings) abort the run.
func Run(pkgs []*Package, analyzers []*Analyzer, scopes map[string]Scope) (Result, error) {
	var all []Diagnostic
	sup := suppressions{}
	for _, pkg := range pkgs {
		sup.collect(pkg.Fset, pkg.Files)
		all = append(all, MalformedAllows(pkg.Fset, pkg.Files)...)
		for _, a := range analyzers {
			if !scopes[a.Name].applies(pkg) {
				continue
			}
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
			}
			if err := a.Run(pass); err != nil {
				return Result{}, fmt.Errorf("%s: %s: %v", a.Name, pkg.PkgPath, err)
			}
			for _, d := range pass.diags {
				if !sup.allows(d) {
					all = append(all, d)
				}
			}
		}
	}
	sortDiagnostics(all)
	return Result{Diagnostics: all, UnusedAllows: sup.unused()}, nil
}
