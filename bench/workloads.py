"""Workload definitions for the shiftforge benchmark.

Each workload is a closed loop over rounds of instances.  A round is a
fixed mix of instance shapes, always run whole, so every run weighs the
shapes the same way.  For every workload this module provides:

- plan: the generator seeds of the Max-3-Lin systems, searched once per
  run before set-up is timed (see _full_encoding_seed), so that setup_s
  does not depend on how long the search took for this seed.
- make_specs: seeded input generation.  It writes the input files and
  returns the rounds as lists of instance specs.  Only the generated
  files and plain payloads reach the program.
- execute: the timed call sequence for one instance, through the public
  shiftforge API.  It returns the report lines, the bytes written, the
  work count behind work_per_s, and the values the checks need.
- check: the output checks.  Each returns a list of problems; an empty
  list means the instance passed.
- corrupt: perturbs one expected value of a spec.  The self-test uses it
  to show that the checks catch a wrong answer.

Shapes are fixed per workload (see FULL and TINY) so that the cost of an
instance does not depend on the seed; the seed only picks the values.
"""

from __future__ import annotations

import contextlib
import io
import random
from collections import namedtuple
from math import comb

Workload = namedtuple("Workload", "plan make_specs execute check corrupt")
Outcome = namedtuple("Outcome", "lines written work values")

FULL = {
    # (p, n = m, systems per round): three F2 systems take about as long
    # as one F3 system, so both rings get equal time and the median
    # instance lies inside the F2 group, not between two groups
    "max3lin-verify": {"rings": ((3, 5, 1), (2, 7, 3)), "pool": 2},
    "hn-roundtrip": {"box": 2, "jobs": 2, "pool": 4},
    "construct": {"p": 5, "n": 3, "copies": 4, "exponent": (2000, 2100),
                  "circuits": 3, "nodes": 75, "inputs": 24, "pool": 2},
}

TINY = {
    "max3lin-verify": {"rings": ((3, 3, 1), (2, 4, 3)), "pool": 2},
    "hn-roundtrip": {"box": 1, "jobs": 2, "pool": 2},
    "construct": {"p": 5, "n": 3, "copies": 2, "exponent": (40, 60),
                  "circuits": 3, "nodes": 12, "inputs": 4, "pool": 1},
}


def _cli_write(cli, argv):
    """Run one CLI command that writes a file, keeping stdout clean."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError("shiftforge %s exited %d" % (argv[0], code))


def _full_encoding_seed(sf, n, ring, start, noise):
    """First generator seed from `start` whose rows all carry a nonzero
    constant, so the encoding has the full sigma = 4m + 1 terms and every
    instance of the shape costs the same."""
    for seed in range(start, start + 10000):
        system = sf.gen_max3lin(n, n, ring, planted=True, noise_count=noise,
                                seed=seed)
        if all(not b.is_zero for _, _, b in system.rows):
            return seed
    raise RuntimeError("no full encoding for n = m = %d over %s" % (n, ring))


# -- max3lin-verify -------------------------------------------------------


def _max3lin_plan(sf, seed, shape):
    rng = random.Random(seed)
    return [[[_full_encoding_seed(sf, n, sf.prime_field(p),
                                  rng.randrange(10 ** 9), 1)
              for _ in range(count)] for p, n, count in shape["rings"]]
            for _ in range(shape["pool"])]


def _max3lin_specs(sf, cli, seed, shape, plan, out):
    rounds = []
    for r, round_seeds in enumerate(plan):
        specs = []
        for (p, n, _), gen_seeds in zip(shape["rings"], round_seeds):
            for k, gen_seed in enumerate(gen_seeds):
                name = "r%d-F%d-%d" % (r, p, k)
                path = out / (name + ".3lin")
                _cli_write(cli, ["gen-max3lin", "--n", n, "--m", n, "--ring",
                                 "Fp %d" % p, "--planted", "--noise", 1,
                                 "--seed", gen_seed, "-o", path])
                specs.append({"id": name, "path": str(path), "m": n,
                              "points": p ** (2 * n) + p ** n})
        rounds.append(specs)
    return rounds


def _max3lin_execute(sf, spec):
    system = sf.max3lin.load_max3lin(spec["path"])
    report = sf.oracles.verify_max3lin(system, jobs=1)
    return Outcome(report.lines(), b"", spec["points"],
                   {"match": report.match, "maxsat": report.maxsat,
                    "min_nonconstant": report.min_nonconstant})


def _max3lin_check(spec, v):
    m = spec["m"]
    problems = []
    if not v["match"]:
        problems.append("match false")
    if v["min_nonconstant"] != 4 * m - v["maxsat"]:
        problems.append("min_nonconstant %d != 4m - maxsat = %d"
                        % (v["min_nonconstant"], 4 * m - v["maxsat"]))
    if v["maxsat"] < m - 1:
        problems.append("maxsat %d below the planted m - 1" % v["maxsat"])
    return problems


def _max3lin_corrupt(spec):
    spec["m"] += 1


# -- hn-roundtrip ---------------------------------------------------------
#
# Every system is one equation c1*x1^2 + c2*x2^2 + c0 = 0 over Z, which
# lowers to nsys = 6 variables, so every instance decodes the same 5^6
# ranks at box 2 and costs about the same.  A round holds one planted
# system and one with no integer solution: positive c0, c1, c2 (a sum of
# squares plus a positive constant) in even rounds, even c1, c2 with odd
# c0 (parity) in odd ones.  The planted solution (a, b) lowers to
# (a, b, a^2, b^2, a^2, b^2); it is drawn so that its wired shift
# (-sum, a, b, a^2, ...) lies inside the box, so that both directions of
# the round trip find it and shift_to_solution runs.


def _nonzero(rng, lo=1, hi=3):
    return rng.choice([-1, 1]) * rng.randint(lo, hi)


def _planted(rng, box):
    while True:
        a, b = rng.randint(-box, box), rng.randint(-box, box)
        lowered = [a, b, a * a, b * b, a * a, b * b]
        if max(map(abs, lowered)) > box or abs(sum(lowered)) > box:
            continue
        c1, c2 = _nonzero(rng), _nonzero(rng)
        value = c1 * a * a + c2 * b * b
        if value:
            return c1, c2, -value


def _squares_system(sf, c1, c2, c0):
    names = ["x1", "x2"]
    poly = sf.SparsePoly(sf.ZZ, 2, {(2, 0): c1, (0, 2): c2, (0, 0): c0}, names)
    return sf.EquationSystem(sf.ZZ, names, [poly])


def _hn_specs(sf, cli, seed, shape, plan, out):
    rng = random.Random(seed)
    box = shape["box"]
    rounds = []
    for r in range(shape["pool"]):
        if r % 2 == 0:
            unsolvable = ("sum-of-squares", (rng.randint(1, 3), rng.randint(1, 3),
                                             rng.randint(1, 9)))
        else:
            unsolvable = ("parity", (2 * _nonzero(rng), 2 * _nonzero(rng),
                                     2 * rng.randint(-4, 3) + 1))
        kinds = [("planted", _planted(rng, box), True), unsolvable + (False,)]
        specs = []
        for name, coeffs, planted in kinds:
            system = _squares_system(sf, *coeffs)
            nsys = sf.quadratizer.quadratize_sparse(system)[0].nvars
            path = out / ("r%d-%s.sys" % (r, name))
            sf.quadratizer.save_system(str(path), system)
            specs.append({"id": "r%d-%s" % (r, name), "path": str(path),
                          "planted": planted, "box": box, "jobs": shape["jobs"],
                          "ranks": (2 * box + 1) ** nsys})
        rounds.append(specs)
    return rounds


def _hn_execute(sf, spec):
    _, system, _ = sf.quadratizer.load_system(spec["path"])
    report = sf.oracles.verify_hn_roundtrip(system, box=spec["box"],
                                            jobs=spec["jobs"])
    values = {"trivial": report.trivial, "consistent": report.consistent,
              "solutions": report.solutions,
              "sparsifying_shifts": report.sparsifying_shifts,
              "shift_points": report.shift_points}
    work = (report.solution_points or 0) + (report.shift_points or 0)
    return Outcome(report.lines(), b"", work, values)


def _hn_check(spec, v):
    if v["trivial"]:
        return ["reduced to a trivially solvable system"]
    problems = []
    if not v["consistent"]:
        problems.append("consistent false")
    if spec["planted"] and (v["solutions"] < 1 or v["sparsifying_shifts"] < 1):
        problems.append("planted system shows %d solutions, %d shifts"
                        % (v["solutions"], v["sparsifying_shifts"]))
    if not spec["planted"] and (v["solutions"] or v["sparsifying_shifts"]):
        problems.append("unsolvable system reports %d solutions, %d shifts"
                        % (v["solutions"], v["sparsifying_shifts"]))
    return problems


def _hn_corrupt(spec):
    spec["planted"] = not spec["planted"]


# -- construct ------------------------------------------------------------


def _circuit(sf, rng, nx, size):
    """A random integer circuit with a fixed leaf pattern: nodes 0-5 are
    inputs, node 6 and every seventh node after it is a nonzero constant,
    so the lowered system always carries constants; every seventh node
    from index 10 is an input; the rest are products and sums of earlier
    nodes."""
    C = sf.circuits
    nodes = []
    for i in range(size):
        if i % 7 == 6:
            nodes.append((i, C.CONST, _nonzero(rng, 1, 9)))
        elif i < 6 or i % 7 == 3:
            nodes.append((i, C.INPUT, rng.randrange(nx)))
        elif rng.random() < 0.5:
            nodes.append((i, C.MUL, (rng.randrange(i), rng.randrange(i))))
        else:
            nodes.append((i, C.ADD, tuple(rng.randrange(i)
                                          for _ in range(rng.randint(1, 3)))))
    return C.Circuit(sf.ZZ, nx, nodes, size - 1)


def _construct_plan(sf, seed, shape):
    rng = random.Random(seed)
    ring = sf.prime_field(shape["p"])
    return [_full_encoding_seed(sf, shape["n"], ring, rng.randrange(10 ** 9), 0)
            for _ in range(shape["pool"])]


def _construct_specs(sf, cli, seed, shape, plan, out):
    rng = random.Random(seed)
    p, n, copies = shape["p"], shape["n"], shape["copies"]
    specs = []
    for r, gen_seed in enumerate(plan):
        path = out / ("r%d-F%d.3lin" % (r, p))
        _cli_write(cli, ["gen-max3lin", "--n", n, "--m", n, "--ring",
                         "Fp %d" % p, "--planted", "--seed", gen_seed,
                         "-o", path])
        names = []
        for k in range(shape["circuits"]):
            circuit = _circuit(sf, rng, shape["inputs"], shape["nodes"])
            names.append("r%d-c%d.circ" % (r, k))
            sf.circuits.save_circuit(str(out / names[-1]), circuit)
        manifest = out / ("r%d-circuits.sys" % r)
        manifest.write_text("manifest\n" + "".join("circuit %s\n" % c for c in names))
        w = 2 * n
        specs.append({
            "id": "r%d" % r, "path": str(path), "manifest": str(manifest),
            "copies": copies, "m": n, "sigma": 4 * n + 1,
            # each copy moves by an embedded assignment: zero on the first
            # w - n coordinates, nonzero on the last n, the shifts the
            # encoding is built for
            "shifts": [[0] * (w - n) + [rng.randint(1, p - 1) for _ in range(n)]
                       for _ in range(copies)],
            "exponent": rng.randrange(*shape["exponent"]),
            "text": [str(out / ("r%d-amplified.poly" % r)),
                     str(out / ("r%d-reloaded.poly" % r))],
        })
    return [[s] for s in specs]


def _construct_execute(sf, spec):
    sp = sf.sparsepoly
    system = sf.max3lin.load_max3lin(spec["path"])
    ring = system.ring
    satisfied = sf.max3lin.count_satisfied(system, system.meta["planted"])
    enc = sf.max3lin.encode_max3lin(system)
    amp = sf.amplifier.amplify(enc.polynomial, spec["copies"])
    shifts = [[ring.el(v) for v in vec] for vec in spec["shifts"]]
    factorwise = sf.amplifier.amplified_shift(amp, shifts)
    full = amp.polynomial.shift([v for vec in shifts for v in vec])
    first, second = spec["text"]
    sp.save_poly(first, amp.polynomial)
    reloaded = sp.load_poly(first)
    sp.save_poly(second, reloaded)
    with open(first, "rb") as fh:
        written = fh.read()
    with open(second, "rb") as fh:
        rewritten = fh.read()
    e = spec["exponent"]
    x = sf.SparsePoly(sf.ZZ, 1, {(e,): 1})
    uni = x.shift([sf.ZZ.el(1)])
    _, circuits, _ = sf.quadratizer.load_system(spec["manifest"])
    inst = sf.hn_reduce.reduce_hn(circuits)
    hn = isinstance(inst, sf.hn_reduce.HNInstance)
    hn_sigma = inst.sigma if hn else 0
    hn_bound = sf.hn_reduce.declared_sparsity_bound(inst.system) if hn else 0
    values = {
        "satisfied": satisfied, "sigma": enc.polynomial.sparsity(),
        "amplified": amp.polynomial.sparsity(),
        "shifts_equal": factorwise == full,
        "text_identical": written == rewritten and reloaded == amp.polynomial,
        "univariate_terms": uni.sparsity(),
        "univariate_sum": sum(uni.terms.values()),
        "univariate_binomial": uni.terms.get((e // 2,)) == comb(e, e // 2),
        "hn": hn, "hn_sigma": hn_sigma, "hn_bound": hn_bound,
    }
    lines = ["%s %s" % kv for kv in values.items()]
    lines.append("shifted_sparsity %d" % full.sparsity())
    work = (amp.polynomial.sparsity() + factorwise.sparsity() + full.sparsity()
            + reloaded.sparsity() + uni.sparsity() + hn_sigma)
    return Outcome(lines, written, work, values)


def _construct_check(spec, v):
    problems = []
    if v["satisfied"] != spec["m"]:
        problems.append("planted assignment satisfies %d of %d rows"
                        % (v["satisfied"], spec["m"]))
    if v["sigma"] != spec["sigma"]:
        problems.append("encoding sigma %d != %d" % (v["sigma"], spec["sigma"]))
    if v["amplified"] != spec["sigma"] ** spec["copies"]:
        problems.append("amplified sparsity %d != sigma^d" % v["amplified"])
    if not v["shifts_equal"]:
        problems.append("amplified_shift differs from the full shift")
    if not v["text_identical"]:
        problems.append("text round trip is not byte-identical")
    e = spec["exponent"]
    if (v["univariate_terms"] != e + 1 or v["univariate_sum"] != 2 ** e
            or not v["univariate_binomial"]):
        problems.append("(x + 1)^%d expanded wrongly" % e)
    if not v["hn"]:
        problems.append("circuits reduced to a trivially solvable system")
    elif v["hn_sigma"] > v["hn_bound"]:
        problems.append("HN sigma %d above its declared bound %d"
                        % (v["hn_sigma"], v["hn_bound"]))
    return problems


def _construct_corrupt(spec):
    spec["sigma"] += 1


WORKLOADS = {
    "max3lin-verify": Workload(_max3lin_plan, _max3lin_specs, _max3lin_execute,
                               _max3lin_check, _max3lin_corrupt),
    "hn-roundtrip": Workload(lambda sf, seed, shape: None, _hn_specs,
                             _hn_execute, _hn_check, _hn_corrupt),
    "construct": Workload(_construct_plan, _construct_specs, _construct_execute,
                          _construct_check, _construct_corrupt),
}
