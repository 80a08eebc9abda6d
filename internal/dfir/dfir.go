// Package dfir provides an interchange format for dynamic dataflow graphs: a
// line-oriented text serialization (read and written by the cmd tools) and a
// Graphviz DOT export that reproduces the paper's figure conventions —
// squares for root vertices, circles for operators, triangles for steer and
// lozenges for inctag (Figs. 1 and 2).
package dfir

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"unsafe"

	"repro/internal/dataflow"
	"repro/internal/rt"
	"repro/internal/value"
)

// Marshal renders g in the dfir text format:
//
//	graph fig1
//	const x = 1
//	arith R1 +
//	compare R14 > imm 0
//	edge A1 x:0 -> R1:0
//	edge m R3:0 -> out
//
// Steer source ports are written R15:true / R15:false. The output is
// canonical: nodes in id order, edges in id order. It is appended into one
// buffer sized from the graph.
func Marshal(g *dataflow.Graph) string {
	size := len("graph \n") + len(g.Name)
	for _, n := range g.Nodes {
		size += len("compare   immleft \n") + len(n.Name) + len(n.Op) + valueLen(n.Init) + valueLen(n.Imm)
	}
	for _, e := range g.Edges {
		size += len("edge  :false -> :0\n") + len(e.Label) + len(g.Nodes[e.From].Name)
		if e.To != dataflow.NoNode {
			size += len(g.Nodes[e.To].Name)
		}
	}
	b := make([]byte, 0, size)
	b = append(append(append(b, "graph "...), g.Name...), '\n')
	for _, n := range g.Nodes {
		b = append(append(append(b, n.Kind.String()...), ' '), n.Name...)
		switch n.Kind {
		case dataflow.KindConst:
			b = n.Init.Append(append(b, " = "...))
		case dataflow.KindArith, dataflow.KindCompare, dataflow.KindUnaryOp:
			b = append(append(b, ' '), n.Op...)
			if n.Imm.IsValid() {
				if n.ImmLeft {
					b = append(b, " immleft "...)
				} else {
					b = append(b, " imm "...)
				}
				b = n.Imm.Append(b)
			}
		}
		b = append(b, '\n')
	}
	for _, e := range g.Edges {
		from := g.Nodes[e.From]
		b = append(append(append(append(append(b, "edge "...), e.Label...), ' '), from.Name...), ':')
		switch {
		case from.Kind != dataflow.KindSteer:
			b = strconv.AppendInt(b, int64(e.FromPort), 10)
		case e.FromPort == dataflow.PortFalse:
			b = append(b, "false"...)
		default:
			b = append(b, "true"...)
		}
		if e.To == dataflow.NoNode {
			b = append(b, " -> out\n"...)
			continue
		}
		b = append(append(append(b, " -> "...), g.Nodes[e.To].Name...), ':')
		b = append(strconv.AppendInt(b, int64(e.ToPort), 10), '\n')
	}
	// b is never written again, so the string may share its bytes.
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// valueLen is the length of v's rendering, 0 for the invalid Value.
func valueLen(v value.Value) int {
	switch v.Kind() {
	case value.KindInvalid:
		return 0
	case value.KindString:
		return len(v.AsString()) + 2
	}
	var buf [32]byte
	return len(v.Append(buf[:0]))
}

// Unmarshal parses the dfir text format back into a graph. Every error it
// returns is rt.ErrParse, a graph that fails validation included. It reads
// the text in place: names, operators and labels are slices of src.
func Unmarshal(src string) (*dataflow.Graph, error) {
	var g *dataflow.Graph
	// Every line but an edge may declare a node.
	names := make(map[string]dataflow.NodeID, strings.Count(src, "\n")+1-strings.Count(src, "\nedge "))
	var fields []string
	for lineNo, rest := 1, src; rest != ""; lineNo++ {
		var line string
		line, rest, _ = strings.Cut(rest, "\n")
		if line = strings.TrimSpace(line); line == "" || line[0] == '#' {
			continue
		}
		fields = splitFields(line, fields[:0])
		errf := func(format string, args ...any) error {
			return rt.Mark(rt.ErrParse, fmt.Errorf("dfir: line %d: %s", lineNo, fmt.Sprintf(format, args...)))
		}
		if g == nil {
			if fields[0] != "graph" || len(fields) != 2 {
				return nil, errf("expected 'graph <name>' first, got %q", line)
			}
			g = dataflow.NewGraph(fields[1])
			continue
		}
		var id dataflow.NodeID
		switch kind := fields[0]; kind {
		case "graph":
			return nil, errf("duplicate graph directive")
		case "const":
			if len(fields) != 4 || fields[2] != "=" {
				return nil, errf("expected 'const <name> = <value>'")
			}
			v, err := value.Parse(fields[3])
			if err != nil {
				return nil, errf("%v", err)
			}
			id = g.AddConst(fields[1], v)
		case "arith", "compare":
			if len(fields) != 3 && len(fields) != 5 {
				return nil, errf("expected '%s <name> <op> [imm|immleft <value>]'", kind)
			}
			name, op := fields[1], fields[2]
			var v value.Value
			if len(fields) == 5 {
				var err error
				if v, err = value.Parse(fields[4]); err != nil {
					return nil, errf("%v", err)
				}
			}
			switch {
			case len(fields) == 3 && kind == "arith":
				id = g.AddArith(name, op)
			case len(fields) == 3:
				id = g.AddCompare(name, op)
			case kind == "arith" && fields[3] == "imm":
				id = g.AddArithImm(name, op, v)
			case kind == "arith" && fields[3] == "immleft":
				id = g.AddArithImmLeft(name, op, v)
			case fields[3] == "imm":
				id = g.AddCompareImm(name, op, v)
			case fields[3] == "immleft":
				id = g.AddCompareImmLeft(name, op, v)
			default:
				return nil, errf("expected imm or immleft, got %q", fields[3])
			}
		case "steer", "inctag", "copy", "settag":
			if len(fields) != 2 {
				return nil, errf("expected '%s <name>'", kind)
			}
			switch kind {
			case "steer":
				id = g.AddSteer(fields[1])
			case "inctag":
				id = g.AddIncTag(fields[1])
			case "settag":
				id = g.AddSetTag(fields[1])
			default:
				id = g.AddCopy(fields[1])
			}
		case "unary":
			if len(fields) != 3 {
				return nil, errf("expected 'unary <name> <op>'")
			}
			id = g.AddUnary(fields[1], fields[2])
		case "edge":
			if len(fields) != 5 || fields[3] != "->" {
				return nil, errf("expected 'edge <label> <from>:<port> -> <to>:<port>|out'")
			}
			from, fromPort, err := parseEndpoint(fields[2], names)
			to, toPort := dataflow.NoNode, 0
			if err == nil && fields[4] != "out" {
				to, toPort, err = parseEndpoint(fields[4], names)
			}
			if err == nil {
				_, err = g.Connect(from, fromPort, to, toPort, fields[1])
			}
			if err != nil {
				return nil, errf("%v", err)
			}
			continue
		default:
			return nil, errf("unknown directive %q", kind)
		}
		if _, dup := names[fields[1]]; dup {
			return nil, errf("node %s declared twice", fields[1])
		}
		names[fields[1]] = id
	}
	if g == nil {
		return nil, rt.Mark(rt.ErrParse, fmt.Errorf("dfir: empty input"))
	}
	if err := g.Validate(); err != nil {
		return nil, rt.Mark(rt.ErrParse, err)
	}
	return g, nil
}

// splitFields appends line's fields to fields: runs of bytes split on spaces
// and tabs, except inside quotes (for const values like 'a b').
func splitFields(line string, fields []string) []string {
	start := -1
	var quote byte
	for i := 0; i < len(line); i++ {
		c := line[i]
		switch {
		case quote != 0:
			if c == quote {
				quote = 0
			}
		case c == ' ' || c == '\t':
			if start >= 0 {
				fields, start = append(fields, line[start:i]), -1
			}
			continue
		case c == '\'' || c == '"':
			quote = c
		}
		if start < 0 {
			start = i
		}
	}
	if start >= 0 {
		fields = append(fields, line[start:])
	}
	return fields
}

// parseEndpoint parses "name:port", with true/false accepted for steer
// source ports.
func parseEndpoint(s string, names map[string]dataflow.NodeID) (dataflow.NodeID, int, error) {
	i := strings.LastIndex(s, ":")
	if i < 0 {
		return 0, 0, fmt.Errorf("endpoint %q needs a :port suffix", s)
	}
	name, portStr := s[:i], s[i+1:]
	id, ok := names[name]
	if !ok {
		return 0, 0, fmt.Errorf("unknown node %q", name)
	}
	switch portStr {
	case "true":
		return id, dataflow.PortTrue, nil
	case "false":
		return id, dataflow.PortFalse, nil
	}
	if port, err := strconv.Atoi(portStr); err == nil {
		return id, port, nil
	}
	return 0, 0, fmt.Errorf("bad port %q", portStr)
}

// ToDOT renders the graph in Graphviz DOT with the paper's shape
// conventions: box for const roots, ellipse for operators, triangle for
// steer, diamond (lozenge) for inctag, point for program outputs.
func ToDOT(g *dataflow.Graph) string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n  rankdir=TB;\n", g.Name)
	for _, n := range g.Nodes {
		shape, label := "ellipse", n.Name
		switch n.Kind {
		case dataflow.KindConst:
			shape = "box"
			label = fmt.Sprintf("%s = %s", n.Name, n.Init)
		case dataflow.KindArith, dataflow.KindCompare:
			label = fmt.Sprintf("%s\\n%s", n.Name, n.Op)
			if n.Imm.IsValid() {
				if n.ImmLeft {
					label = fmt.Sprintf("%s\\n%s %s _", n.Name, n.Imm, n.Op)
				} else {
					label = fmt.Sprintf("%s\\n_ %s %s", n.Name, n.Op, n.Imm)
				}
			}
		case dataflow.KindSteer:
			shape = "triangle"
		case dataflow.KindIncTag:
			shape = "diamond"
		case dataflow.KindSetTag:
			shape = "invhouse"
		case dataflow.KindUnaryOp:
			label = fmt.Sprintf("%s\\n%s", n.Name, n.Op)
		}
		fmt.Fprintf(&b, "  n%d [shape=%s, label=\"%s\"];\n", n.ID, shape, label)
	}
	outN := 0
	for _, e := range g.Edges {
		attrs := fmt.Sprintf("label=%q", e.Label)
		if g.Nodes[e.From].Kind == dataflow.KindSteer {
			if e.FromPort == dataflow.PortTrue {
				attrs += ", taillabel=\"T\""
			} else {
				attrs += ", taillabel=\"F\""
			}
		}
		if e.To == dataflow.NoNode {
			fmt.Fprintf(&b, "  out%d [shape=point];\n", outN)
			fmt.Fprintf(&b, "  n%d -> out%d [%s];\n", e.From, outN, attrs)
			outN++
			continue
		}
		fmt.Fprintf(&b, "  n%d -> n%d [%s];\n", e.From, e.To, attrs)
	}
	b.WriteString("}\n")
	return b.String()
}

// Stats summarizes a graph for reporting: node counts per kind, in kind
// order, and edge count.
func Stats(g *dataflow.Graph) string {
	counts := make(map[string]int)
	for _, n := range g.Nodes {
		counts[n.Kind.String()]++
	}
	parts := make([]string, 0, len(counts)+1)
	for k, c := range counts {
		parts = append(parts, fmt.Sprintf("%s=%d", k, c))
	}
	sort.Strings(parts) // no kind's name is a prefix of another's, so this is kind order
	return strings.Join(append(parts, fmt.Sprintf("edges=%d", len(g.Edges))), " ")
}
