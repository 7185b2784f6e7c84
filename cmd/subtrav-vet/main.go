// Command subtrav-vet runs the repo's custom static-analysis suite —
// the invariants go vet cannot see:
//
//	simdet      bit-for-bit determinism in the simulator pipeline
//	lockhold    no blocking ops or leaked returns under a mutex
//	ctxplumb    no fresh context roots where a ctx is in scope
//	metriclabel obs metric naming + bounded label cardinality
//	taintlen    no unchecked wire-decoded lengths reaching make/index
//	allocfree   no per-call allocations in //vet:hotpath functions
//
// Usage:
//
//	go run ./cmd/subtrav-vet [-run a,b] [-json] [-list]
//	                         [-diff ref] [-unused-allows] [packages...]
//
// Packages default to ./... Exit status: 0 clean, 1 findings,
// 2 usage or load failure. A finding is suppressed by a
// `//lint:allow <analyzer> <reason>` comment on the offending line
// or the line above it; the reason is mandatory.
//
// -diff <git-ref> restricts the report to files changed since the
// ref (plus untracked files); the packages given are analyzed as
// usual and only the reporting is filtered.
//
// -unused-allows switches to the stale-suppression report: every
// well-formed //lint:allow comment that suppressed nothing across
// the whole run. Meaningful only on a full-suite, full-module run
// (a -run or package subset makes other analyzers' allows look
// unused).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"subtrav/internal/analysis"
	"subtrav/internal/analysis/suite"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("subtrav-vet", flag.ContinueOnError)
	runList := fs.String("run", "", "comma-separated analyzer names to run (default: all)")
	asJSON := fs.Bool("json", false, "emit findings as a JSON array (always an array, [] when clean)")
	list := fs.Bool("list", false, "list analyzers and exit")
	diffRef := fs.String("diff", "", "report only findings in files changed since this git ref (plus untracked files)")
	unusedAllows := fs.Bool("unused-allows", false, "report stale //lint:allow comments instead of findings")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers := suite.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *runList != "" {
		keep := map[string]bool{}
		for _, name := range strings.Split(*runList, ",") {
			keep[strings.TrimSpace(name)] = true
		}
		var selected []*analysis.Analyzer
		for _, a := range analyzers {
			if keep[a.Name] {
				selected = append(selected, a)
				delete(keep, a.Name)
			}
		}
		for name := range keep {
			fmt.Fprintf(os.Stderr, "subtrav-vet: unknown analyzer %q (try -list)\n", name)
			return 2
		}
		analyzers = selected
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	loader := analysis.NewLoader(".")
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "subtrav-vet: %v\n", err)
		return 2
	}

	res, err := analysis.Run(pkgs, analyzers, suite.Scopes())
	if err != nil {
		fmt.Fprintf(os.Stderr, "subtrav-vet: %v\n", err)
		return 2
	}

	diags := res.Diagnostics
	if *unusedAllows {
		diags = res.UnusedAllows
	}

	if *diffRef != "" {
		changed, err := changedFiles(*diffRef)
		if err != nil {
			fmt.Fprintf(os.Stderr, "subtrav-vet: -diff %s: %v\n", *diffRef, err)
			return 2
		}
		kept := diags[:0]
		for _, d := range diags {
			if changed[d.Pos.Filename] {
				kept = append(kept, d)
			}
		}
		diags = kept
	}

	if *asJSON {
		// Always an array — [] when clean — so downstream jq
		// pipelines (CI annotations) never see null or empty output.
		if diags == nil {
			diags = []analysis.Diagnostic{}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintf(os.Stderr, "subtrav-vet: %v\n", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) == 0 {
		return 0
	}
	return 1
}

// changedFiles returns the set of absolute paths changed since ref
// (committed, staged or unstaged) plus untracked files, so -diff
// covers exactly the work a PR branch carries.
func changedFiles(ref string) (map[string]bool, error) {
	root, err := gitOutput("rev-parse", "--show-toplevel")
	if err != nil {
		return nil, err
	}
	rootDir := strings.TrimSpace(root)

	diff, err := gitOutput("diff", "--name-only", ref, "--")
	if err != nil {
		return nil, err
	}
	untracked, err := gitOutput("ls-files", "--others", "--exclude-standard")
	if err != nil {
		return nil, err
	}

	set := map[string]bool{}
	for _, out := range []string{diff, untracked} {
		for _, line := range strings.Split(out, "\n") {
			line = strings.TrimSpace(line)
			if line == "" {
				continue
			}
			set[filepath.Join(rootDir, line)] = true
		}
	}
	return set, nil
}

func gitOutput(args ...string) (string, error) {
	cmd := exec.Command("git", args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("git %s: %v: %s", strings.Join(args, " "), err, strings.TrimSpace(stderr.String()))
	}
	return string(out), nil
}
