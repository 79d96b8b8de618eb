package algo

import (
	"fmt"
	"strings"
)

// Markers bracket the generated algorithm reference inside README.md.
// cmd/algoref rewrites the text between them from the catalog, and a
// test in this package fails the build when the section goes stale.
const (
	MarkdownBegin = "<!-- ALGORITHM REFERENCE: BEGIN (generated from internal/algo — edit kernels.go and run `go generate ./internal/algo`) -->"
	MarkdownEnd   = "<!-- ALGORITHM REFERENCE: END -->"
)

// Markdown renders the catalog as the README's algorithm reference:
// per-tier sections, one block per algorithm with its doc, required
// properties and parameter table. The output is a pure function of the
// registered descriptors, so docs can never drift from the code.
func (c *Catalog) Markdown() string {
	var b strings.Builder
	infos := c.List()
	tiers := []struct {
		tier  Tier
		title string
		blurb string
	}{
		{TierBasic, "Basic tier", "Sane defaults; required graph properties are materialized (once, cached) for you."},
		{TierAdvanced, "Advanced tier", "Expert knobs. The kernels themselves compute and cache nothing; their declared properties are materialized up front by the caller — the service does this automatically (each computed once per graph, cached), library users call `algo.EnsureProperties`."},
	}
	for _, t := range tiers {
		fmt.Fprintf(&b, "### %s\n\n%s\n\n", t.title, t.blurb)
		for _, in := range infos {
			if in.Tier != t.tier {
				continue
			}
			fmt.Fprintf(&b, "#### `%s`\n\n%s\n\n", in.Name, in.Doc)
			var notes []string
			if in.Undirected {
				notes = append(notes, "Requires an undirected graph.")
			}
			if len(in.Properties) > 0 {
				notes = append(notes, fmt.Sprintf("Cached properties: %s.", strings.Join(in.Properties, ", ")))
			}
			if len(notes) > 0 {
				fmt.Fprintf(&b, "%s\n\n", strings.Join(notes, " "))
			}
			if len(in.Params) == 0 {
				b.WriteString("No parameters.\n\n")
				continue
			}
			b.WriteString("| param | type | default | constraints | description |\n")
			b.WriteString("| --- | --- | --- | --- | --- |\n")
			for _, p := range in.Params {
				fmt.Fprintf(&b, "| `%s` | %s | %s | %s | %s |\n",
					p.Name, p.Type, mdDefault(p), mdConstraints(p), p.Doc)
			}
			b.WriteString("\n")
		}
	}
	return strings.TrimRight(b.String(), "\n") + "\n"
}

func mdDefault(p Spec) string {
	switch {
	case p.Required:
		return "*(required)*"
	case p.Default == nil:
		return "—"
	case p.Type == TString:
		return fmt.Sprintf("`%q`", p.Default)
	default:
		return fmt.Sprintf("`%v`", p.Default)
	}
}

func mdConstraints(p Spec) string {
	var cs []string
	if p.Min != nil {
		op := ">="
		if p.MinExcl {
			op = ">"
		}
		cs = append(cs, fmt.Sprintf("%s %s", op, FormatBound(*p.Min)))
	}
	if p.Max != nil {
		op := "<="
		if p.MaxExcl {
			op = "<"
		}
		cs = append(cs, fmt.Sprintf("%s %s", op, FormatBound(*p.Max)))
	}
	if len(p.Enum) > 0 {
		cs = append(cs, strings.Join(p.Enum, " \\| "))
	}
	if p.MaxItems > 0 {
		cs = append(cs, fmt.Sprintf("≤ %d items", p.MaxItems))
	}
	if len(cs) == 0 {
		return "—"
	}
	return strings.Join(cs, ", ")
}

// SpliceMarkdown replaces the generated section between the markers in a
// README body, returning the new body. An error is returned when the
// markers are missing or out of order.
func (c *Catalog) SpliceMarkdown(readme string) (string, error) {
	begin := strings.Index(readme, MarkdownBegin)
	end := strings.Index(readme, MarkdownEnd)
	if begin < 0 || end < 0 || end < begin {
		return "", fmt.Errorf("algo: README markers missing or out of order (%q ... %q)",
			MarkdownBegin, MarkdownEnd)
	}
	return readme[:begin+len(MarkdownBegin)] + "\n\n" + c.Markdown() + "\n" + readme[end:], nil
}
