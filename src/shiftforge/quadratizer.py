"""Lowering passes from arbitrary polynomial systems to quadratic form.

A lowered system contains only two equation shapes: constant-free
quadratic binomials `u - v*w = 0` whose single-variable head strictly
dominates v and w, and affine-linear equations.  The variable catalog has
three blocks in fixed positional order: the original tier-x variables,
then tier-y product auxiliaries, then tier-z monomial-name auxiliaries.
"Dominates" means "has the larger catalog position", so every z outranks
every y, which outranks every x.

Each lowering also returns an extension recipe: an ordered list of
auxiliary definitions that turns any assignment of the tier-x variables
into the unique full assignment satisfying the defining equations.
"""

from __future__ import annotations

import os.path
from collections import Counter, deque

from .circuits import (
    ADD,
    CONST,
    INPUT,
    MUL,
    Circuit,
    load_circuit,
    read_circuit_line,
)
from .errors import (
    ArityError,
    FormatError,
    PreconditionError,
    RingMismatchError,
    UnsupportedDomainError,
    quoted,
)
from .rings import RingElement
from .sparsepoly import (
    Reader,
    SparsePoly,
    check_term_cap,
    default_names,
    eval_payload,
    header_lines,
    map_key,
    pairs,
    parse_int,
    read_file,
    read_term,
    token_lines,
)

TIER_X = "x"
TIER_Y = "y"
TIER_Z = "z"


def _check_tier_order(tiers):
    # blocks must be contiguous in x, y, z order so that catalog position
    # is a dominance order; the tier letters sort in that order
    if list(tiers) != sorted(tiers):
        raise FormatError("variable tiers must form contiguous x, y, z blocks")


class EquationSystem:
    """Equations f_i = 0 over one shared, tiered variable catalog."""

    __slots__ = ("ring", "var_names", "tiers", "equations")

    def __init__(self, ring, var_names, equations, tiers=None):
        self.ring = ring
        self.var_names = tuple(var_names)
        n = len(self.var_names)
        if tiers is None:
            tiers = (TIER_X,) * n
        self.tiers = tuple(tiers)
        if len(self.tiers) != n:
            raise ArityError("tier list length mismatch")
        if any(t not in (TIER_X, TIER_Y, TIER_Z) for t in self.tiers):
            raise FormatError("unknown tier in %r" % (self.tiers,))
        _check_tier_order(self.tiers)
        eqs = []
        for eq in equations:
            if not isinstance(eq, SparsePoly):
                raise TypeError("equations must be polynomials")
            if eq.ring != ring:
                raise RingMismatchError("equation over a different ring")
            if eq.nvars != n:
                raise ArityError("equation over a different catalog")
            eqs.append(eq)
        self.equations = tuple(eqs)

    @property
    def nvars(self):
        return len(self.var_names)

    @property
    def n_inputs(self):
        return sum(1 for t in self.tiers if t == TIER_X)

    @property
    def is_input_only(self):
        return all(t == TIER_X for t in self.tiers)

    def __eq__(self, other):
        return (
            isinstance(other, EquationSystem)
            and self.ring == other.ring
            and self.var_names == other.var_names
            and self.tiers == other.tiers
            and self.equations == other.equations
        )


class ExtensionRecipe:
    """Ordered auxiliary definitions extending tier-x assignments."""

    __slots__ = ("ring", "nvars", "n_inputs", "steps")

    def __init__(self, ring, nvars, n_inputs, steps):
        # steps: (target, op, args) with op in var | const | mul | sum;
        # each auxiliary position is defined exactly once, in an order
        # that only references inputs and earlier targets
        self.ring = ring
        self.nvars = nvars
        self.n_inputs = n_inputs
        self.steps = tuple(steps)
        targets = [t for t, _, _ in self.steps]
        if sorted(targets) != list(range(n_inputs, nvars)):
            raise PreconditionError("recipe must define each auxiliary exactly once")
        defined = set(range(n_inputs))
        for target, op, args in self.steps:
            if op != "const":
                # var reads one position, mul two, sum one or more
                arity = {"var": 1, "mul": 2}.get(op, max(1, len(args)))
                if len(args) != arity or not defined.issuperset(args):
                    raise PreconditionError(
                        "recipe %s step for %d must read %d inputs or earlier "
                        "targets" % (op, target, arity)
                    )
            defined.add(target)

    def extend(self, ax):
        vals = self.ring.payloads(ax, self.n_inputs, "assignment")
        return tuple(RingElement(self.ring, v) for v in self.extend_payloads(vals))

    def extend_payloads(self, vals):
        """The full assignment, as canonical payloads, that extends the
        canonical payloads vals of the inputs; not checked."""
        vals = list(vals) + [None] * (self.nvars - self.n_inputs)
        m = self.ring.modulus
        for target, op, args in self.steps:
            if op == "var":
                v = vals[args[0]]
            elif op == "const":
                v = args
            elif op == "mul":
                v = vals[args[0]] * vals[args[1]]
            else:
                v = sum(vals[a] for a in args)
            if m is not None:
                v %= m
            vals[target] = v
        return tuple(map(self.ring.canon, vals))

    def __eq__(self, other):
        return (
            isinstance(other, ExtensionRecipe)
            and self.ring == other.ring
            and self.nvars == other.nvars
            and self.n_inputs == other.n_inputs
            and self.steps == other.steps
        )


def extend_solution(recipe, ax):
    return recipe.extend(ax)


def check_solution(system, assignment):
    return check_payloads(
        system, system.ring.payloads(assignment, system.nvars, "assignment"))


def check_payloads(system, vals):
    """Whether the canonical payloads vals solve the system; not checked."""
    # eval_payload reduces residues, so a solution reads 0 in every ring
    return not any(eval_payload(eq, vals) for eq in system.equations)


# -- lowering ----------------------------------------------------------


def _monomial(*positions):
    """Key of the product of the variables at `positions`."""
    return map_key(Counter(positions))


class _Lowering:
    """The lowered equations and recipe steps of one pass, in order."""

    __slots__ = ("ring", "n_inputs", "nvars", "rows", "steps")

    def __init__(self, ring, n_inputs, nvars):
        self.ring = ring
        self.n_inputs = n_inputs
        self.nvars = nvars
        self.rows = []  # term maps of the lowered equations
        self.steps = []

    def define(self, target, op, args):
        """Record the recipe step (target, op, args) and its defining
        equation `target - value(step) = 0`, with the value that
        ExtensionRecipe.extend computes."""
        self.steps.append((target, op, args))
        terms = {_monomial(target): 1}
        if op == "const":
            terms[()] = -args
        elif op == "sum":
            for a in args:
                key = _monomial(a)
                terms[key] = terms.get(key, 0) - 1
        else:
            terms[_monomial(*args)] = -1
        self.rows.append(terms)

    def finish(self, names, tiers):
        equations = [SparsePoly._from_payloads(self.ring, self.nvars, terms, names)
                     for terms in self.rows]
        recipe = ExtensionRecipe(self.ring, self.nvars, self.n_inputs, self.steps)
        return EquationSystem(self.ring, names, equations, tiers), recipe


def quadratize_sparse(system):
    """Lower a tier-x sparse system to quadratic-binomial-plus-affine form.

    Per equation, monomials are visited in graded-lex descending order.
    The variables of a monomial wait in a queue in ascending catalog
    order, with repeats.  While two or more are left, the lowest (v) and
    the next (u) leave it for a fresh y with recipe step `y = u*v`, and y
    joins the back of the queue: it outranks everything left.  A z
    variable names the last entry (`z = entry`), and the equation itself
    becomes affine-linear in its z variables.  Each defining equation is
    `target - value(step) = 0`.  Zero equations are dropped.  Returns the
    lowered system and the extension recipe.
    """
    if not system.is_input_only:
        raise PreconditionError("input system must be over tier-x variables only")
    nx = system.nvars
    equations = [eq for eq in system.equations if not eq.is_zero]
    # a monomial of degree d >= 1 takes d - 1 y variables and one z
    degrees = [sum(key[1::2]) for eq in equations for key in eq.sparse_terms if key]
    nz = len(degrees)
    ny = sum(degrees) - nz
    nvars = nx + ny + nz
    check_term_cap(nvars, "the lowering's variable catalog")
    lowering = _Lowering(system.ring, nx, nvars)
    y, z = nx, nx + ny  # the next free y and z positions
    names = list(system.var_names)
    znames = []
    for i, eq in enumerate(equations, start=1):
        affine = {}
        for j, key in enumerate(eq.sorted_keys(), start=1):
            queue = deque(p for p, e in pairs(key) for _ in range(e))
            if not queue:
                affine[()] = eq.sparse_terms[key]
                continue
            for k in range(1, len(queue)):
                v, u = queue.popleft(), queue.popleft()
                lowering.define(y, "mul", (u, v))
                names.append("y%d_%d_%d" % (i, j, k))
                queue.append(y)
                y += 1
            lowering.define(z, "var", (queue[0],))
            znames.append("z%d_%d" % (i, j))
            affine[(z, 1)] = eq.sparse_terms[key]
            z += 1
        lowering.rows.append(affine)
    tiers = (TIER_X,) * nx + (TIER_Y,) * ny + (TIER_Z,) * nz
    return lowering.finish(tuple(names + znames), tiers)


_CIRCUIT_OPS = {INPUT: "var", CONST: "const", MUL: "mul", ADD: "sum"}


def quadratize_circuit(circuits):
    """Lower circuits (one equation `circuit = 0` each) over a shared
    catalog.  Every node gets a y variable and the defining equation of
    its recipe step; each circuit additionally contributes the equation
    `y_output = 0`."""
    circuits = list(circuits)
    if not circuits:
        raise PreconditionError("at least one circuit required")
    ring = circuits[0].ring
    nx = circuits[0].nvars
    names_x = circuits[0].var_names
    for c in circuits[1:]:
        if c.ring != ring:
            raise RingMismatchError("circuits over different rings")
        if c.nvars != nx or c.var_names != names_x:
            raise PreconditionError("circuits must share one variable catalog")

    ny = sum(c.size for c in circuits)
    nvars = nx + ny
    lowering = _Lowering(ring, nx, nvars)
    names = list(names_x)
    for ci, c in enumerate(circuits, start=1):
        pos = {nid: len(names) + j for j, nid in enumerate(c.ids)}
        names += ["y%d_%d" % (ci, j) for j in range(1, c.size + 1)]
        for nid in c.ids:
            kind, data = c.nodes[nid]
            if kind == INPUT:
                args = (data,)
            elif kind == CONST:
                args = data
            else:
                args = tuple(pos[child] for child in data)
            lowering.define(pos[nid], _CIRCUIT_OPS[kind], args)
        lowering.rows.append({(pos[c.output], 1): 1})
    return lowering.finish(tuple(names), (TIER_X,) * nx + (TIER_Y,) * ny)


# -- shape checks ------------------------------------------------------


def equation_shape(eq):
    """'affine' (degree <= 1), 'binomial' (constant-free, one linear and
    one quadratic term), or 'other'."""
    if eq.degree() <= 1:
        return "affine"
    degs = sorted(sum(key[1::2]) for key in eq.sparse_terms)
    if degs == [1, 2]:
        return "binomial"
    return "other"


def binomial_head_dominates(eq):
    """For a binomial shape: the linear term's variable has a strictly
    larger catalog position than both variables of the quadratic term."""
    lin = quad = None
    for key in eq.sparse_terms:
        if key[1:] == (1,):
            lin = key
        else:
            quad = key
    return all(p < lin[0] for p in quad[::2])


def is_quadratized_shape(system):
    for eq in system.equations:
        shape = equation_shape(eq)
        if shape == "other":
            return False
        # a binomial has no constant: equation_shape counts it as "other"
        if shape == "binomial" and not binomial_head_dominates(eq):
            return False
    return True


def first_constant_index(system):
    """Index of the first equation with a nonzero constant term, or None."""
    for i, eq in enumerate(system.equations):
        if not eq.constant_term().is_zero:
            return i
    return None


# -- constant normalization --------------------------------------------


def normalize_constants(system):
    """Cross-multiply constants away until exactly one equation carries
    one, and move that pivot equation to the front.

    Every constant-bearing equation must be affine-linear (lowering
    guarantees this).  For the pivot g_1 with constant c_1 and any other
    constant-bearing g_i with constant c_i, g_i is replaced by
    c_1*g_i - c_i*g_1, whose constant term cancels; a replacement that
    collapses to the zero polynomial is dropped.  Given g_1 = 0 the
    replacement leaves c_1*g_i = 0, which gives g_i = 0 only when c_1 is
    not a zero divisor.  Over Z, Q and F_p the pivot is the first
    constant-bearing equation.  Over Z_q every nonzero non-unit is a zero
    divisor, so the pivot is the first one whose constant is a unit, and
    UnsupportedDomainError is raised when two or more carry a constant
    and none of those is a unit.  Returns the new system and a flag that
    is True when no equation carries a constant at all, in which case
    the system is returned unchanged and the all-zero assignment
    satisfies it.
    """
    ring = system.ring
    bearing = [i for i, eq in enumerate(system.equations)
               if not eq.constant_term().is_zero]
    if not bearing:
        return system, True
    pivot_idx = bearing[0]
    if ring.is_finite and len(bearing) > 1:
        pivot_idx = next((i for i in bearing
                          if system.equations[i].constant_term().is_unit), None)
        if pivot_idx is None:
            raise UnsupportedDomainError(
                "normalize over %s needs a unit constant: %d equations carry "
                "a constant and none is a unit" % (ring.token(), len(bearing)))
    pivot = system.equations[pivot_idx]
    c1 = pivot.constant_term()
    out = [pivot]
    for i, eq in enumerate(system.equations):
        c = eq.constant_term()
        if not c.is_zero:
            if eq.degree() > 1:
                raise PreconditionError(
                    "constant-bearing equation %d is not affine-linear" % i
                )
            if i == pivot_idx:
                continue
            eq = eq.scale(c1).sub(pivot.scale(c))
            if eq.is_zero:
                continue
        out.append(eq)
    normalized = EquationSystem(ring, system.var_names, out, system.tiers)
    return normalized, False


# -- file format -------------------------------------------------------
#
#   ring ...
#   vars <k> [<name> | x:<name> | y:<name> | z:<name> ...]
#   eq            (one block per equation; `term` lines, or `node` and
#   ...            `output` lines when the equation is a circuit)
#
# Lowered systems append machine-readable recipe comments:
#   # recipe <target> var <i> | const <coef> | mul <i> <j> | sum <i> ...


def system_to_text(system, recipe=None):
    tagged = not system.is_input_only
    names = [
        (t + ":" + n) if tagged else n
        for t, n in zip(system.tiers, system.var_names)
    ]
    lines = header_lines(system.ring, system.nvars, names)
    for eq in system.equations:
        lines.append("eq")
        lines.extend(token_lines(eq))
    if recipe is not None:
        for target, op, args in recipe.steps:
            if op == "const":
                arg = system.ring.format_coeff(RingElement(system.ring, args))
            else:
                arg = " ".join(str(a) for a in args)
            lines.append("# recipe %d %s %s" % (target, op, arg))
    return "\n".join(lines) + "\n"


def system_from_text(text):
    """Parse a system file into (kind, source, recipe): ('sparse', an
    EquationSystem, its ExtensionRecipe or None) for `term` blocks, or
    ('circuits', a list of Circuits, None) for node blocks."""
    reader = Reader()
    names = tiers = None
    blocks = []  # per eq line: (term map, nodes, output ids)
    kinds = set()  # True for term lines, False for node and output lines
    steps = []

    def catalog(parts, line):
        nonlocal names, tiers
        tagged = [n.split(":", 1) if ":" in n else (TIER_X, n)
                  for n in reader.names or default_names(reader.nvars)]
        names = tuple(name for _, name in tagged)
        tiers = tuple(tier for tier, _ in tagged)
        for tier in tiers:
            if tier not in (TIER_X, TIER_Y, TIER_Z):
                raise FormatError("unknown tier prefix %s" % quoted(tier))
        _check_tier_order(tiers)

    def body(parts, line):
        key = parts[0]
        if not blocks:
            raise FormatError("%s line outside an eq block" % key)
        kinds.add(key == "term")
        if len(kinds) > 1:
            raise FormatError("mixed term and node blocks")
        terms, nodes, outputs = blocks[-1]
        if key == "term":
            read_term(reader, terms, parts, line)
        else:
            read_circuit_line(reader, nodes, outputs, parts, line)

    def recipe(words, line):
        if len(words) < 4:
            raise FormatError("truncated recipe line")
        _, target, op, *args = words
        target = parse_int(target, line)
        if op == "const":
            steps.append((target, op, reader.ring.parse_payload(args[0])))
        elif op in ("var", "mul", "sum"):
            steps.append((target, op, tuple(parse_int(a, line) for a in args)))
        else:
            raise FormatError("unknown recipe op %s" % quoted(op))

    statements = dict.fromkeys(("term", "node", "output"), body)
    statements.update(vars=catalog, eq=lambda parts, line: blocks.append(({}, {}, [])))
    reader.read(text, statements, {"recipe": recipe})
    if reader.nvars is None:
        raise FormatError("system file needs ring and vars lines")
    ring, nvars = reader.ring, reader.nvars
    if False not in kinds:
        equations = [
            SparsePoly._from_payloads(ring, nvars, terms, names, reduced=True)
            for terms, _, _ in blocks
        ]
        system = EquationSystem(ring, names, equations, tiers)
        recipe = None
        if steps:
            recipe = ExtensionRecipe(ring, nvars, tiers.count(TIER_X), steps)
        return "sparse", system, recipe

    circuits = []
    for _, nodes, outputs in blocks:
        if not outputs:
            raise FormatError("circuit block is missing an output line")
        nodes = [(nid,) + node for nid, node in nodes.items()]
        circuits.append(Circuit(ring, nvars, nodes, outputs[-1], names))
    return "circuits", circuits, None


def load_system(path):
    """Load a system file; a leading `manifest` line redirects each
    `circuit <relpath>` entry to its own circuit file."""
    return read_file(path, lambda text: _system_or_manifest(text, path))


def _system_or_manifest(text, path):
    reader = Reader()
    if next(reader.lines(text), (None, None))[1] != "manifest":
        return system_from_text(text)
    circuits = []
    try:
        for parts, line in reader.lines(text):
            if parts[0] == "manifest":
                continue
            if parts[0] != "circuit" or len(parts) != 2:
                raise FormatError("manifest lines must be `circuit <path>`")
            circuits.append(load_circuit(os.path.join(os.path.dirname(path), parts[1])))
    except FormatError as exc:
        raise exc.locate(line=reader.lineno)
    if not circuits:
        raise FormatError("empty manifest")
    return "circuits", circuits, None


def save_system(path, system, recipe=None):
    with open(path, "w") as fh:
        fh.write(system_to_text(system, recipe))
