package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
	"time"
)

// AllowPrefix is the suppression directive: `//embrace:allow <analyzer>
// <justification>` on the finding's line (or the line directly above)
// silences that analyzer there. The justification is mandatory — an
// unjustified directive is itself a finding. The directive is also honored
// in block form (`/*embrace:allow ...*/`).
const AllowPrefix = "//embrace:allow"

// directive is one parsed //embrace:allow comment.
type directive struct {
	pos       token.Pos
	analyzers []string
	justified bool
	// hits counts the findings this directive suppressed in the current
	// Check; a justified directive that suppresses nothing is stale and
	// reported, so dead suppressions cannot silently accumulate.
	hits int
}

// parseDirectives extracts the allow directives of a file, keyed by the line
// they appear on. Both line comments and single-line block comments are
// recognized.
func parseDirectives(fset *token.FileSet, file *ast.File) map[int]*directive {
	out := make(map[int]*directive)
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			rest, ok := directiveRest(c.Text)
			if !ok {
				continue
			}
			fields := strings.Fields(rest)
			d := &directive{pos: c.Pos()}
			if len(fields) > 0 {
				d.analyzers = strings.Split(fields[0], ",")
				d.justified = len(fields) > 1
			}
			out[fset.Position(c.Pos()).Line] = d
		}
	}
	return out
}

// directiveRest returns the text after the embrace:allow marker, accepting
// //-comments and /* */-comments (first line only).
func directiveRest(text string) (string, bool) {
	body, block := strings.CutPrefix(text, "/*")
	if block {
		text = "//" + body
	}
	rest, ok := strings.CutPrefix(text, AllowPrefix)
	if !ok || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
		return "", false
	}
	if block {
		if i := strings.IndexByte(rest, '\n'); i >= 0 {
			rest = rest[:i]
		}
		rest = strings.TrimSuffix(strings.TrimRight(rest, " \t"), "*/")
	}
	return rest, true
}

func (d *directive) covers(analyzer string) bool {
	for _, a := range d.analyzers {
		if a == analyzer || a == "all" {
			return true
		}
	}
	return false
}

// AnalyzerStats accumulates one analyzer's tallies across the units a
// Runner checks.
type AnalyzerStats struct {
	// Findings counts diagnostics that survived suppression.
	Findings int
	// Suppressed counts diagnostics silenced by justified directives.
	Suppressed int
	// Elapsed is total wall time in the analyzer's Run.
	Elapsed time.Duration
}

// Runner executes a set of analyzers one unit at a time. Findings
// suppressed by justified directives are returned with Suppressed set rather
// than dropped, so drivers can expose the full audit trail.
type Runner struct {
	Analyzers []*Analyzer
	Fset      *token.FileSet
	// Stats tallies findings and time per analyzer name.
	Stats map[string]*AnalyzerStats
}

// NewRunner returns a runner of analyzers over units positioned by fset.
func NewRunner(analyzers []*Analyzer, fset *token.FileSet) *Runner {
	r := &Runner{Analyzers: analyzers, Fset: fset, Stats: make(map[string]*AnalyzerStats)}
	for _, a := range analyzers {
		r.Stats[a.Name] = &AnalyzerStats{}
	}
	return r
}

// Check executes the analyzers over one unit and returns its diagnostics
// sorted by position: findings (suppressed ones marked), plus directive
// audits — unjustified directives, directives naming analyzers outside the
// active set, and stale directives that suppressed nothing this run.
func (r *Runner) Check(unit *Package) ([]Diagnostic, error) {
	allow := make(map[string]map[int]*directive, len(unit.Files))
	for _, f := range unit.Files {
		allow[r.Fset.Position(f.Pos()).Filename] = parseDirectives(r.Fset, f)
	}

	var diags []Diagnostic
	for _, a := range r.Analyzers {
		start := time.Now()
		pass := &Pass{
			Analyzer:  a,
			Fset:      r.Fset,
			Files:     unit.Files,
			Pkg:       unit.Types,
			TypesInfo: unit.Info,
		}
		pass.report = func(d Diagnostic) {
			pos := r.Fset.Position(d.Pos)
			if dirs, ok := allow[pos.Filename]; ok {
				for _, line := range []int{pos.Line, pos.Line - 1} {
					if dir, ok := dirs[line]; ok && dir.covers(a.Name) && dir.justified {
						dir.hits++
						d.Suppressed = true
						break
					}
				}
			}
			if d.Suppressed {
				r.Stats[a.Name].Suppressed++
			} else {
				r.Stats[a.Name].Findings++
			}
			diags = append(diags, d)
		}
		if _, err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, unit.Path, err)
		}
		r.Stats[a.Name].Elapsed += time.Since(start)
	}

	// Directive audit. Malformed or unjustified directives defeat the audit
	// trail the mechanism exists for; unknown names and stale suppressions
	// are dead weight that hides real exceptions among expired ones.
	active := map[string]bool{"all": true}
	for _, a := range r.Analyzers {
		active[a.Name] = true
	}
	for _, dirs := range allow {
		for _, d := range dirs {
			switch {
			case len(d.analyzers) == 0:
				diags = append(diags, Diagnostic{Pos: d.pos, Analyzer: "allow",
					Message: "embrace:allow directive names no analyzer"})
			case !d.justified:
				diags = append(diags, Diagnostic{Pos: d.pos, Analyzer: "allow",
					Message: fmt.Sprintf("embrace:allow %s needs a justification", strings.Join(d.analyzers, ","))})
			default:
				unknown := ""
				for _, name := range d.analyzers {
					if !active[name] {
						unknown = name
						break
					}
				}
				if unknown != "" {
					diags = append(diags, Diagnostic{Pos: d.pos, Analyzer: "allow",
						Message: fmt.Sprintf("embrace:allow names unknown analyzer %q (active: %s)", unknown, activeNames(r.Analyzers))})
				} else if d.hits == 0 {
					diags = append(diags, Diagnostic{Pos: d.pos, Analyzer: "allow",
						Message: fmt.Sprintf("stale embrace:allow %s: suppresses no finding — remove it", strings.Join(d.analyzers, ","))})
				}
			}
		}
	}

	sort.Slice(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	return diags, nil
}

func activeNames(analyzers []*Analyzer) string {
	names := make([]string, len(analyzers))
	for i, a := range analyzers {
		names[i] = a.Name
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}
