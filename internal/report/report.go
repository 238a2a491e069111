// Package report renders finished allocations for humans: a register
// occupancy chart (which value sits in which register at each control
// step — value moves, copies and the loop wrap are directly visible), a
// functional-unit usage chart including pass-throughs, and a
// multiplexer summary. All output is deterministic plain text.
package report

import (
	"fmt"
	"sort"
	"strings"

	"salsa/internal/binding"
	"salsa/internal/cdfg"
	"salsa/internal/lifetime"
)

// code assigns each value a stable one-character code: a-z, A-Z, 0-9,
// then '#' for overflow.
func code(i int) byte {
	const alphabet = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
	if i < len(alphabet) {
		return alphabet[i]
	}
	return '#'
}

// RegisterChart renders the register×step occupancy of the binding.
// Primary segments print as the value's code letter; copy segments
// print as the code letter in brackets... width constraints make that
// noisy, so copies are marked by uppercase duplication in the legend
// and a '+' overlay row instead: the chart letter is the same, and the
// legend lists which values own copies.
func RegisterChart(b *binding.Binding) (string, error) {
	occ, err := b.RegOccupancy()
	if err != nil {
		return "", err
	}
	a := b.A
	var sb strings.Builder
	fmt.Fprintf(&sb, "register occupancy (%d steps%s):\n", a.Sched.Steps, wrapNote(a))
	// Step ruler.
	fmt.Fprintf(&sb, "%-5s", "")
	for t := 0; t < a.StorageSteps; t++ {
		if t%5 == 0 {
			fmt.Fprintf(&sb, "%-5d", t)
		}
	}
	sb.WriteString("\n")
	for r := range b.HW.Regs {
		fmt.Fprintf(&sb, "%-5s", b.HW.Regs[r].Name)
		for t := 0; t < a.StorageSteps; t++ {
			v := occ[r][t]
			if v == lifetime.NoValue {
				sb.WriteByte('.')
				continue
			}
			sb.WriteByte(code(int(v)))
		}
		sb.WriteString("\n")
	}
	// Legend.
	sb.WriteString("values: ")
	var parts []string
	for i := range a.Values {
		v := &a.Values[i]
		tag := ""
		if v.State != cdfg.NoNode {
			tag = "*" // loop-carried
		}
		parts = append(parts, fmt.Sprintf("%c=%s%s", code(i), v.Name, tag))
	}
	sb.WriteString(strings.Join(parts, " "))
	sb.WriteString("\n")
	if n := b.NumCopies(); n > 0 {
		fmt.Fprintf(&sb, "(%d copy segments present; a letter appearing in two rows at one step is a copy)\n", n)
	}
	return sb.String(), nil
}

func wrapNote(a *lifetime.Analysis) string {
	if a.Sched.G.Cyclic {
		return ", loop wraps at the right edge"
	}
	return " + output hold step"
}

// FUChart renders operator issues (by name) and pass-throughs ('~') per
// functional unit and step.
func FUChart(b *binding.Binding) (string, error) {
	occ, err := b.FUOccupancy()
	if err != nil {
		return "", err
	}
	g := b.A.Sched.G
	var sb strings.Builder
	fmt.Fprintf(&sb, "functional units (issue windows; '~' = pass-through):\n")
	for f := range b.HW.FUs {
		fmt.Fprintf(&sb, "%-5s", b.HW.FUs[f].Name)
		for t := 0; t < b.A.Sched.Steps; t++ {
			switch {
			case occ.Issue[f][t] != cdfg.NoNode:
				op := g.Nodes[occ.Issue[f][t]]
				sym := byte('+')
				if op.Op == cdfg.Sub {
					sym = '-'
				} else if op.Op == cdfg.Mul {
					sym = '*'
				}
				sb.WriteByte(sym)
			case hasPass(occ, f, t):
				sb.WriteByte('~')
			default:
				sb.WriteByte('.')
			}
		}
		sb.WriteString("\n")
	}
	return sb.String(), nil
}

func hasPass(occ *binding.FUOccupancy, f, t int) bool {
	return occ.PassAt[f][t] != binding.NoTransfer
}

// MuxSummary lists every multi-source module input with its sources,
// before and after merging.
func MuxSummary(b *binding.Binding) (string, error) {
	ic, cost, err := b.Eval()
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "interconnect: %d connections, %d equivalent 2-1 muxes (%d after merging)\n",
		ic.Connections(), cost.MuxCost, ic.MergedMuxCost())
	var lines []string
	for _, sink := range ic.Sinks() {
		if ic.FaninOf(sink) < 2 {
			continue
		}
		var srcs []string
		for _, s := range ic.SourcesOf(sink) {
			srcs = append(srcs, s.String())
		}
		lines = append(lines, fmt.Sprintf("  %-8v <- {%s}", sink, strings.Join(srcs, ", ")))
	}
	sort.Strings(lines)
	for _, l := range lines {
		sb.WriteString(l)
		sb.WriteString("\n")
	}
	merged := ic.MergeMuxes()
	fmt.Fprintf(&sb, "merged multiplexers: %d\n", len(merged))
	for i, m := range merged {
		var srcs, sinks []string
		for _, s := range m.Sources {
			srcs = append(srcs, s.String())
		}
		for _, s := range m.Sinks {
			sinks = append(sinks, fmt.Sprintf("%v", s))
		}
		fmt.Fprintf(&sb, "  mux%d: {%s} -> %s\n", i, strings.Join(srcs, ", "), strings.Join(sinks, ", "))
	}
	return sb.String(), nil
}

// Full renders all three views.
func Full(b *binding.Binding) (string, error) {
	rc, err := RegisterChart(b)
	if err != nil {
		return "", err
	}
	fc, err := FUChart(b)
	if err != nil {
		return "", err
	}
	mc, err := MuxSummary(b)
	if err != nil {
		return "", err
	}
	return rc + "\n" + fc + "\n" + mc, nil
}
