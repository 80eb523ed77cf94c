"""Batch command-line surface for the pipeline.

Exit codes: 0 the command completed (mathematical NO/NONE answers are
printed, not signaled); 2 input or format error; 3 precondition or
domain error; 4 enumeration cap exceeded.  All output is deterministic:
fixed term ordering, fixed report key order, seeds echoed into
generated files.
"""

from __future__ import annotations

import argparse
import sys

from .amplifier import GapParams, amplify, copies_for_gap, gap_alpha
from .errors import (
    CapExceededError,
    FormatError,
    InternalConsistencyError,
    PreconditionError,
)
from .hn_reduce import TriviallySolvable, reduce_hn, save_witness
from .max3lin import encode_max3lin, gen_max3lin, load_max3lin, save_max3lin
from .oracles import (
    SUPPORT_LAST,
    ZERO_SUM,
    SearchDomain,
    maxsat,
    search_min_sparsity,
    solve_system,
    verify_hn_roundtrip,
    verify_max3lin,
)
from .quadratizer import (
    load_system,
    normalize_constants,
    quadratize_circuit,
    quadratize_sparse,
    save_system,
)
from .rings import QQ, Ring, decimal_text
from .sparsepoly import (
    format_vector,
    load_poly,
    parse_vector,
    poly_to_text,
    save_poly,
)


def _fraction_arg(text):
    # the readers' grammar: Fraction() also reads 1e1000000, built in full
    try:
        return QQ.parse_payload(text)
    except FormatError:
        raise argparse.ArgumentTypeError("expected a rational like 1/10") from None


def _require_sparse(path):
    kind, system, recipe = load_system(path)
    if kind != "sparse":
        raise PreconditionError("this command needs an equation system file")
    return system, recipe


def _domain_from_args(args):
    if getattr(args, "exhaustive", False):
        dom = SearchDomain.exhaustive()
    elif getattr(args, "box", None) is not None:
        dom = SearchDomain.integer_box(args.box)
    else:
        raise PreconditionError("declare a search domain: --exhaustive or --box B")
    if getattr(args, "zero_sum", False):
        dom = dom.restricted(ZERO_SUM)
    elif getattr(args, "support_last", None) is not None:
        dom = dom.restricted(SUPPORT_LAST, args.support_last)
    return dom


def _cmd_sparsity(args):
    poly = load_poly(args.poly)
    print(poly.sparsity())
    return 0


def _cmd_shift(args):
    poly = load_poly(args.poly)
    offsets = parse_vector(args.by, poly.ring)
    sys.stdout.write(poly_to_text(poly.shift(offsets)))
    return 0


def _cmd_quadratize(args):
    kind, source, _ = load_system(args.source)
    lower = quadratize_circuit if kind == "circuits" else quadratize_sparse
    lowered, recipe = lower(source)
    save_system(args.out, lowered, recipe)
    print("variables %d" % lowered.nvars)
    print("equations %d" % len(lowered.equations))
    return 0


def _cmd_normalize(args):
    system, recipe = _require_sparse(args.source)
    normalized, trivial = normalize_constants(system)
    save_system(args.out, normalized, recipe)
    print("trivially_solvable %s" % ("true" if trivial else "false"))
    print("equations %d" % len(normalized.equations))
    return 0


def _cmd_reduce_hn(args):
    kind, source, _ = load_system(args.source)
    gamma = None
    if args.gamma is not None:
        ring = source[0].ring if kind == "circuits" else source.ring
        gamma = ring.parse_coeff(args.gamma)
    result = reduce_hn(source, gamma)
    if isinstance(result, TriviallySolvable):
        print("trivially_solvable true")
        print("certificate %s" % format_vector(result.certificate))
        return 0
    save_poly(args.out, result.polynomial)
    save_witness(args.witness, result.witness, result.polynomial.ring)
    print("trivially_solvable false")
    print("sigma %d" % result.sigma)
    return 0


def _cmd_reduce_max3lin(args):
    system = load_max3lin(args.source)
    e0 = system.ring.parse_coeff(args.e0) if args.e0 is not None else None
    enc = encode_max3lin(system, e0)
    save_poly(args.out, enc.polynomial)
    print("w %d" % enc.w)
    print("sigma %d" % enc.polynomial.sparsity())
    return 0


def _cmd_amplify(args):
    poly = load_poly(args.poly)
    inst = amplify(poly, args.copies)
    header = "copies d=%d base_nvars=%d" % (inst.copies, poly.nvars)
    save_poly(args.out, inst.polynomial, header_comments=[header])
    print("copies %d" % inst.copies)
    print("sparsity %d" % inst.polynomial.sparsity())
    return 0


def _cmd_search_shift(args):
    poly = load_poly(args.poly)
    dom = _domain_from_args(args)
    metric = "nonconstant" if args.nonconstant else "total"
    report = search_min_sparsity(poly, dom, metric=metric)
    for line in report.lines():
        print(line)
    return 0


def _cmd_solve(args):
    system, recipe = _require_sparse(args.source)
    dom = _domain_from_args(args)
    found = solve_system(system, dom)
    if found is None:
        print("solution NONE")
    else:
        print("solution %s" % format_vector(found))
    return 0


def _cmd_maxsat(args):
    system = load_max3lin(args.source)
    dom = _domain_from_args(args)
    print("maxsat %d" % maxsat(system, dom))
    return 0


def _cmd_verify_hn(args):
    _, source, _ = load_system(args.source)
    report = verify_hn_roundtrip(source, box=args.box)
    for line in report.lines():
        print(line)
    return 0


def _cmd_verify_max3lin(args):
    system = load_max3lin(args.source)
    e0 = system.ring.parse_coeff(args.e0) if args.e0 is not None else None
    report = verify_max3lin(system, e0)
    for line in report.lines():
        print(line)
    return 0


def _cmd_gap_params(args):
    alpha = gap_alpha(args.epsilon, args.delta, args.m)
    lines = ["alpha %s" % decimal_text(alpha, "alpha")]
    if args.sigma is not None or args.target_gap is not None:
        if args.sigma is None or args.target_gap is None:
            raise PreconditionError("--target-gap and --sigma go together")
        copies = copies_for_gap(args.sigma, args.target_gap)
        params = GapParams(args.epsilon, args.delta, args.m, copies)
        lines += ["copies %d" % copies,
                  "t_yes %s" % decimal_text(params.t_yes, "t_yes"),
                  "t_no %s" % decimal_text(params.t_no, "t_no")]
    print("\n".join(lines))
    return 0


def _cmd_gen_max3lin(args):
    ring = Ring.from_token(args.ring)
    system = gen_max3lin(
        args.n,
        args.m,
        ring,
        planted=args.planted,
        noise_count=args.noise,
        seed=args.seed,
    )
    save_max3lin(args.out, system)
    print("rows %d" % system.m)
    print("w %d" % system.w)
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="shiftforge",
        description="Exact toolkit relating polynomial-system solvability "
        "to sparsifying shifts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        p = sub.add_parser(name, **kw)
        p.set_defaults(fn=fn)
        return p

    def add_domain(p):
        g = p.add_mutually_exclusive_group(required=True)
        g.add_argument("--exhaustive", action="store_true",
                       help="all vectors over a finite ring")
        g.add_argument("--box", type=int, metavar="B",
                       help="integer box [-B, B] per coordinate")

    p = add("sparsity", _cmd_sparsity, help="count monomials of a polynomial")
    p.add_argument("poly")

    p = add("shift", _cmd_shift, help="substitute X + a and print the result")
    p.add_argument("poly")
    p.add_argument("--by", required=True, metavar="a1,a2,...")

    p = add("quadratize", _cmd_quadratize,
            help="lower a system or circuit list to quadratic form")
    p.add_argument("source")
    p.add_argument("-o", "--out", required=True)

    p = add("normalize", _cmd_normalize,
            help="combine constant-bearing equations down to one")
    p.add_argument("source")
    p.add_argument("-o", "--out", required=True)

    p = add("reduce-hn", _cmd_reduce_hn,
            help="encode a system as a shift-sparsification instance")
    p.add_argument("source")
    p.add_argument("--gamma", help="nonzero non-unit scale, default 2")
    p.add_argument("-o", "--out", required=True)
    p.add_argument("--witness", required=True,
                   help="companion variable-layout file")

    p = add("reduce-max3lin", _cmd_reduce_max3lin,
            help="encode a 3-variable linear system as a quadratic polynomial")
    p.add_argument("source")
    p.add_argument("--e0", help="constant term of the encoding, default 1")
    p.add_argument("-o", "--out", required=True)

    p = add("amplify", _cmd_amplify,
            help="multiply variable-disjoint renamed copies")
    p.add_argument("poly")
    p.add_argument("--copies", type=int, required=True)
    p.add_argument("-o", "--out", required=True)

    p = add("search-shift", _cmd_search_shift,
            help="minimum monomial count over a shift domain")
    p.add_argument("poly")
    add_domain(p)
    g = p.add_mutually_exclusive_group()
    g.add_argument("--zero-sum", action="store_true",
                   help="first coordinate forced to minus the sum of the rest")
    g.add_argument("--support-last", type=int, metavar="N",
                   help="all but the last N coordinates pinned to zero")
    p.add_argument("--nonconstant", action="store_true",
                   help="count only monomials of positive degree")

    p = add("solve", _cmd_solve, help="least solution of a system in a domain")
    p.add_argument("source")
    add_domain(p)

    p = add("maxsat", _cmd_maxsat,
            help="most simultaneously satisfiable rows")
    p.add_argument("source")
    add_domain(p)

    p = add("verify-hn", _cmd_verify_hn,
            help="reduce and check both solution/shift directions in a box")
    p.add_argument("source")
    p.add_argument("--box", type=int, required=True, metavar="B")

    p = add("verify-max3lin", _cmd_verify_max3lin,
            help="check the shifted-sparsity/maxsat identity exhaustively")
    p.add_argument("source")
    p.add_argument("--e0")

    p = add("gap-params", _cmd_gap_params,
            help="promise-gap ratio and copy count")
    p.add_argument("--epsilon", type=_fraction_arg, required=True)
    p.add_argument("--delta", type=_fraction_arg, required=True)
    p.add_argument("-m", type=int, required=True, dest="m")
    p.add_argument("--target-gap", type=_fraction_arg)
    p.add_argument("--sigma", type=int)

    p = add("gen-max3lin", _cmd_gen_max3lin,
            help="sample a 3-variable linear system")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--ring", required=True, help="Z, Q, 'Fp p', or 'Zq q'")
    p.add_argument("--planted", action="store_true")
    p.add_argument("--noise", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--out", required=True)

    return parser


# options whose value may start with '-' without being a plain negative
# number, such as -1,2 or -3/2; argparse would take it for an option
_SIGNED_VALUES = ("--by", "--gamma", "--e0")


def _joined(argv):
    """argv with `--by -1,2` written as `--by=-1,2`, and likewise for
    every option of _SIGNED_VALUES, so both spellings parse alike."""
    out = []
    for arg in argv:
        if out and out[-1] in _SIGNED_VALUES:
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(_joined(sys.argv[1:] if argv is None else argv))
    try:
        return args.fn(args)
    except FormatError as exc:
        print("format error: %s" % exc, file=sys.stderr)
        return 2
    except OSError as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return 2
    except CapExceededError as exc:
        print("cap exceeded: %s" % exc, file=sys.stderr)
        return 4
    except PreconditionError as exc:
        print("precondition failed: %s" % exc, file=sys.stderr)
        return 3
    except InternalConsistencyError as exc:
        print("internal error: %s" % exc, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
