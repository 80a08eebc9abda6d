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
// canonical: nodes in id order, edges in id order.
func Marshal(g *dataflow.Graph) string {
	var b strings.Builder
	fmt.Fprintf(&b, "graph %s\n", g.Name)
	for _, n := range g.Nodes {
		switch n.Kind {
		case dataflow.KindConst:
			fmt.Fprintf(&b, "const %s = %s\n", n.Name, n.Init)
		case dataflow.KindArith, dataflow.KindCompare:
			kind := "arith"
			if n.Kind == dataflow.KindCompare {
				kind = "compare"
			}
			fmt.Fprintf(&b, "%s %s %s", kind, n.Name, n.Op)
			if n.Imm.IsValid() {
				if n.ImmLeft {
					fmt.Fprintf(&b, " immleft %s", n.Imm)
				} else {
					fmt.Fprintf(&b, " imm %s", n.Imm)
				}
			}
			b.WriteByte('\n')
		case dataflow.KindSteer:
			fmt.Fprintf(&b, "steer %s\n", n.Name)
		case dataflow.KindIncTag:
			fmt.Fprintf(&b, "inctag %s\n", n.Name)
		case dataflow.KindSetTag:
			fmt.Fprintf(&b, "settag %s\n", n.Name)
		case dataflow.KindCopy:
			fmt.Fprintf(&b, "copy %s\n", n.Name)
		case dataflow.KindUnaryOp:
			fmt.Fprintf(&b, "unary %s %s\n", n.Name, n.Op)
		}
	}
	for _, e := range g.Edges {
		from := g.Nodes[e.From]
		src := fmt.Sprintf("%s:%d", from.Name, e.FromPort)
		if from.Kind == dataflow.KindSteer {
			port := "true"
			if e.FromPort == dataflow.PortFalse {
				port = "false"
			}
			src = fmt.Sprintf("%s:%s", from.Name, port)
		}
		if e.To == dataflow.NoNode {
			fmt.Fprintf(&b, "edge %s %s -> out\n", e.Label, src)
		} else {
			fmt.Fprintf(&b, "edge %s %s -> %s:%d\n", e.Label, src, g.Nodes[e.To].Name, e.ToPort)
		}
	}
	return b.String()
}

// Unmarshal parses the dfir text format back into a graph. Every error it
// returns is rt.ErrParse, a graph that fails validation included.
func Unmarshal(src string) (*dataflow.Graph, error) {
	var g *dataflow.Graph
	names := make(map[string]dataflow.NodeID)
	for lineNo, raw := range strings.Split(src, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := splitFields(line)
		errf := func(format string, args ...any) error {
			return rt.Mark(rt.ErrParse, fmt.Errorf("dfir: line %d: %s", lineNo+1, fmt.Sprintf(format, args...)))
		}
		if g == nil {
			if fields[0] != "graph" || len(fields) != 2 {
				return nil, errf("expected 'graph <name>' first, got %q", line)
			}
			g = dataflow.NewGraph(fields[1])
			continue
		}
		switch fields[0] {
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
			if err := declare(names, fields[1], g.AddConst(fields[1], v)); err != nil {
				return nil, errf("%v", err)
			}
		case "arith", "compare":
			if len(fields) != 3 && len(fields) != 5 {
				return nil, errf("expected '%s <name> <op> [imm|immleft <value>]'", fields[0])
			}
			name, op := fields[1], fields[2]
			var id dataflow.NodeID
			if len(fields) == 5 {
				v, err := value.Parse(fields[4])
				if err != nil {
					return nil, errf("%v", err)
				}
				switch {
				case fields[0] == "arith" && fields[3] == "imm":
					id = g.AddArithImm(name, op, v)
				case fields[0] == "arith" && fields[3] == "immleft":
					id = g.AddArithImmLeft(name, op, v)
				case fields[0] == "compare" && fields[3] == "imm":
					id = g.AddCompareImm(name, op, v)
				case fields[0] == "compare" && fields[3] == "immleft":
					id = g.AddCompareImmLeft(name, op, v)
				default:
					return nil, errf("expected imm or immleft, got %q", fields[3])
				}
			} else if fields[0] == "arith" {
				id = g.AddArith(name, op)
			} else {
				id = g.AddCompare(name, op)
			}
			if err := declare(names, name, id); err != nil {
				return nil, errf("%v", err)
			}
		case "steer", "inctag", "copy", "settag":
			if len(fields) != 2 {
				return nil, errf("expected '%s <name>'", fields[0])
			}
			var id dataflow.NodeID
			switch fields[0] {
			case "steer":
				id = g.AddSteer(fields[1])
			case "inctag":
				id = g.AddIncTag(fields[1])
			case "settag":
				id = g.AddSetTag(fields[1])
			default:
				id = g.AddCopy(fields[1])
			}
			if err := declare(names, fields[1], id); err != nil {
				return nil, errf("%v", err)
			}
		case "unary":
			if len(fields) != 3 {
				return nil, errf("expected 'unary <name> <op>'")
			}
			if err := declare(names, fields[1], g.AddUnary(fields[1], fields[2])); err != nil {
				return nil, errf("%v", err)
			}
		case "edge":
			if len(fields) != 5 || fields[3] != "->" {
				return nil, errf("expected 'edge <label> <from>:<port> -> <to>:<port>|out'")
			}
			label := fields[1]
			fromName, fromPort, err := parseEndpoint(fields[2], names, g, true)
			if err != nil {
				return nil, errf("%v", err)
			}
			if fields[4] == "out" {
				if _, err := g.ConnectOut(fromName, fromPort, label); err != nil {
					return nil, errf("%v", err)
				}
				continue
			}
			toName, toPort, err := parseEndpoint(fields[4], names, g, false)
			if err != nil {
				return nil, errf("%v", err)
			}
			if _, err := g.Connect(fromName, fromPort, toName, toPort, label); err != nil {
				return nil, errf("%v", err)
			}
		default:
			return nil, errf("unknown directive %q", fields[0])
		}
	}
	if g == nil {
		return nil, rt.Mark(rt.ErrParse, fmt.Errorf("dfir: empty input"))
	}
	if err := g.Validate(); err != nil {
		return nil, rt.Mark(rt.ErrParse, err)
	}
	return g, nil
}

func declare(names map[string]dataflow.NodeID, name string, id dataflow.NodeID) error {
	if _, dup := names[name]; dup {
		return fmt.Errorf("node %s declared twice", name)
	}
	names[name] = id
	return nil
}

// splitFields splits on whitespace but keeps quoted strings (for const
// values like 'A1') intact.
func splitFields(line string) []string {
	var fields []string
	cur := strings.Builder{}
	var quote byte
	for i := 0; i < len(line); i++ {
		c := line[i]
		switch {
		case quote != 0:
			cur.WriteByte(c)
			if c == quote {
				quote = 0
			}
		case c == '\'' || c == '"':
			quote = c
			cur.WriteByte(c)
		case c == ' ' || c == '\t':
			if cur.Len() > 0 {
				fields = append(fields, cur.String())
				cur.Reset()
			}
		default:
			cur.WriteByte(c)
		}
	}
	if cur.Len() > 0 {
		fields = append(fields, cur.String())
	}
	return fields
}

// parseEndpoint parses "name:port", with true/false accepted for steer
// source ports.
func parseEndpoint(s string, names map[string]dataflow.NodeID, g *dataflow.Graph, from bool) (dataflow.NodeID, int, error) {
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

// Stats summarizes a graph for reporting: node counts per kind and edge
// count.
func Stats(g *dataflow.Graph) string {
	counts := make(map[string]int)
	for _, n := range g.Nodes {
		counts[n.Kind.String()]++
	}
	kinds := make([]string, 0, len(counts))
	for k := range counts {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	parts := make([]string, 0, len(kinds)+1)
	for _, k := range kinds {
		parts = append(parts, fmt.Sprintf("%s=%d", k, counts[k]))
	}
	parts = append(parts, fmt.Sprintf("edges=%d", len(g.Edges)))
	return strings.Join(parts, " ")
}
