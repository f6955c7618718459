// Command seclint runs the repro mpi correctness suite — the syntactic
// passes sectionlabel, useafterrelease and revokederr and the
// interprocedural lockorder — over Go packages, multichecker-style.
//
// Usage:
//
//	seclint [flags] [package patterns]
//
// Patterns are directories relative to -dir ("./...", "./internal/mpi");
// the default is "./...". Findings print in go vet's text form by
// default; -sarif emits a SARIF 2.1.0 document instead (for code-scanning
// upload), and -o redirects either form to a file. Exit status is 0 when
// the tree is clean, 1 when any finding remains, 2 on a load or usage
// error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("seclint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("dir", ".", "directory package patterns are resolved against")
	tests := fs.Bool("tests", false, "also analyze in-package _test.go files")
	only := fs.String("only", "", "comma-separated subset of passes to run (default: all)")
	list := fs.Bool("list", false, "print the available passes and exit")
	sarif := fs.Bool("sarif", false, "emit findings as a SARIF 2.1.0 document instead of text")
	out := fs.String("o", "", "write output to this file instead of stdout")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: seclint [flags] [package patterns]\n\nPasses:\n")
		for _, a := range analysis.All() {
			doc, _, _ := strings.Cut(a.Doc, "\n")
			fmt.Fprintf(stderr, "  %-16s %s\n", a.Name, doc)
		}
		fmt.Fprintf(stderr, "\nFlags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers := analysis.All()
	if *list {
		for _, a := range analyzers {
			doc, _, _ := strings.Cut(a.Doc, "\n")
			fmt.Fprintf(stdout, "%-16s %s\n", a.Name, doc)
		}
		return 0
	}
	if *only != "" {
		byName := map[string]*analysis.Analyzer{}
		for _, a := range analyzers {
			byName[a.Name] = a
		}
		analyzers = nil
		for _, name := range strings.Split(*only, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(stderr, "seclint: unknown pass %q\n", name)
				return 2
			}
			analyzers = append(analyzers, a)
		}
	}

	pkgs, err := analysis.Load(analysis.LoadConfig{Dir: *dir, Tests: *tests}, fs.Args()...)
	if err != nil {
		fmt.Fprintf(stderr, "seclint: %v\n", err)
		return 2
	}
	findings, runErr := analysis.Run(pkgs, analyzers)

	var w io.Writer = stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(stderr, "seclint: %v\n", err)
			return 2
		}
		defer f.Close()
		w = f
	}
	if *sarif {
		if err := analysis.WriteSARIF(w, analyzers, findings, *dir); err != nil {
			fmt.Fprintf(stderr, "seclint: rendering SARIF: %v\n", err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Fprintln(w, f)
		}
	}
	if runErr != nil {
		fmt.Fprintf(stderr, "seclint: %v\n", runErr)
		return 2
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}
