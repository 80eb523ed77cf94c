"""Arithmetic circuits over a shared variable catalog.

Nodes are listed in topological file order with strictly increasing ids.
Product nodes have fan-in exactly two (larger fan-in is rejected, never
auto-split); sum nodes have fan-in at least one and may repeat children.
Dangling nodes are permitted and still count toward the circuit size.
"""

from __future__ import annotations

from functools import partial

from .errors import ArityError, FormatError, quoted
from .rings import RingElement
from .sparsepoly import (
    Reader,
    SparsePoly,
    check_term_cap,
    default_names,
    header_lines,
    parse_int,
    read_file,
)

INPUT = "input"
CONST = "const"
MUL = "mul"
ADD = "add"


def add_node(ring, nvars, nodes, nid, kind, data):
    """Check the node (nid, kind, data) against nodes, the dict id ->
    (kind, data) of the nodes before it in order, and add it there."""
    if nodes and nid <= next(reversed(nodes)):
        raise FormatError("node ids must be strictly increasing")
    if kind == INPUT:
        if not 0 <= data < nvars:
            raise FormatError("input node references variable %r" % (data,))
    elif kind == CONST:
        data = ring.canon(data.val if isinstance(data, RingElement) else data)
    elif kind == MUL:
        if len(data) != 2:
            raise FormatError("product node fan-in must be exactly 2")
        data = tuple(data)
    elif kind == ADD:
        if len(data) < 1:
            raise FormatError("sum node fan-in must be at least 1")
        data = tuple(data)
    else:
        raise FormatError("unknown node kind %r" % (kind,))
    if kind in (MUL, ADD):
        for ref in data:
            if ref not in nodes:
                raise FormatError("node %d references %d before definition" % (nid, ref))
    nodes[nid] = (kind, data)


class Circuit:
    __slots__ = ("ring", "nvars", "var_names", "ids", "nodes", "output")

    def __init__(self, ring, nvars, nodes, output, var_names=None):
        """nodes: sequence of (id, kind, data) in file order.  data is a
        var index for inputs, a payload for consts, child id tuples
        otherwise."""
        self.ring = ring
        self.nvars = nvars
        self.var_names = tuple(var_names) if var_names else default_names(nvars)
        if len(self.var_names) != nvars:
            raise ArityError("variable name count mismatch")
        seen = {}
        for nid, kind, data in nodes:
            add_node(ring, nvars, seen, nid, kind, data)
        if output not in seen:
            raise FormatError("output id %r is not a node" % (output,))
        self.ids = tuple(seen)
        self.nodes = seen
        self.output = output

    @property
    def size(self):
        return len(self.ids)

    def eval(self, point):
        vals = self.ring.payloads(point, self.nvars, "point")
        m = self.ring.modulus
        out = {}
        for nid in self.ids:
            kind, data = self.nodes[nid]
            if kind == INPUT:
                v = vals[data]
            elif kind == CONST:
                v = data
            elif kind == MUL:
                v = out[data[0]] * out[data[1]]
            else:
                v = sum(out[c] for c in data)
            if m is not None:
                v %= m
            out[nid] = v
        return RingElement(self.ring, self.ring.canon(out[self.output]))

    def expand(self):
        """The output polynomial, expanded to sparse form.

        Raises CapExceededError before a node is built when its worst
        case (the product or the sum of its children's term counts)
        exceeds the term budget."""
        out = {}
        for nid in self.ids:
            kind, data = self.nodes[nid]
            if kind == MUL:
                p = out[data[0]].mul(out[data[1]])
            elif kind == ADD:
                worst = sum(out[c].sparsity() for c in data)
                check_term_cap(worst, "node %d" % nid)
                p = SparsePoly.zero(self.ring, self.nvars, self.var_names)
                for c in data:
                    p = p.add(out[c])
            elif kind == INPUT:
                p = SparsePoly.variable(self.ring, self.nvars, data, self.var_names)
            else:
                p = SparsePoly.constant(self.ring, self.nvars, data, self.var_names)
            out[nid] = p
        return out[self.output]

    def __eq__(self, other):
        return (
            isinstance(other, Circuit)
            and self.ring == other.ring
            and self.nvars == other.nvars
            and self.ids == other.ids
            and self.nodes == other.nodes
            and self.output == other.output
        )


# -- file format -----------------------------------------------------
#
#   ring ...
#   vars <k> [names]
#   node <id> input <var-index>
#   node <id> const <coef>
#   node <id> mul <id> <id>
#   node <id> add <id> [<id> ...]
#   output <id>


def circuit_to_text(circuit):
    lines = header_lines(circuit.ring, circuit.nvars, circuit.var_names)
    return "\n".join(lines + node_lines(circuit)) + "\n"


def node_lines(circuit):
    lines = []
    for nid in circuit.ids:
        kind, data = circuit.nodes[nid]
        if kind == INPUT:
            lines.append("node %d input %d" % (nid, data))
        elif kind == CONST:
            coef = circuit.ring.format_coeff(RingElement(circuit.ring, data))
            lines.append("node %d const %s" % (nid, coef))
        else:
            lines.append(
                "node %d %s %s" % (nid, kind, " ".join(str(c) for c in data))
            )
    lines.append("output %d" % circuit.output)
    return lines


def parse_node_line(parts, ring, line):
    """Parse tokens after `node` of the file line `line`; returns
    (id, kind, data)."""
    if len(parts) < 2:
        raise FormatError("truncated node line")
    nid = parse_int(parts[0], line)
    if nid < 0:
        raise FormatError("node ids must be nonnegative")
    kind = parts[1]
    args = parts[2:]
    if kind == INPUT:
        if len(args) != 1:
            raise FormatError("input node takes one variable index")
        return nid, kind, parse_int(args[0], line)
    if kind == CONST:
        if len(args) != 1:
            raise FormatError("const node takes one coefficient")
        return nid, kind, ring.parse_coeff(args[0]).val
    if kind in (MUL, ADD):
        return nid, kind, tuple(parse_int(a, line) for a in args)
    raise FormatError("unknown node kind %s" % quoted(kind))


def read_circuit_line(reader, nodes, outputs, parts, line):
    """Add a `node` line to nodes (a dict, see add_node), or the id of an
    `output` line to outputs."""
    if parts[0] == "node":
        node = parse_node_line(parts[1:], reader.ring, line)
        add_node(reader.ring, reader.nvars, nodes, *node)
    elif len(parts) != 2:
        raise FormatError("output line takes one id")
    elif outputs:
        raise FormatError("duplicate output line")
    else:
        outputs.append(parse_int(parts[1], line))


def circuit_from_text(text):
    reader = Reader()
    nodes = {}
    outputs = []
    handler = partial(read_circuit_line, reader, nodes, outputs)
    reader.read(text, {"node": handler, "output": handler})
    if reader.nvars is None or not outputs:
        raise FormatError("circuit file needs ring, vars and output lines")
    nodes = [(nid,) + node for nid, node in nodes.items()]
    return Circuit(reader.ring, reader.nvars, nodes, outputs[-1], reader.names)


def save_circuit(path, circuit):
    with open(path, "w") as fh:
        fh.write(circuit_to_text(circuit))


def load_circuit(path):
    return read_file(path, circuit_from_text)
