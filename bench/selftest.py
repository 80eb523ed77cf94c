"""Self-test of the benchmark at tiny shapes; takes a few seconds.

    python3 bench/selftest.py

It runs every workload untraced and traced on tiny inputs and checks
that every metric BENCHMARK.json names is emitted, that the layers each
workload is meant to exercise report nonzero numbers, and that no check
fails.  Then it corrupts one expected value per workload and checks that
the run reports failed instances (failed_frac > 0).  Exit status 0 means
all of this held; 1 lists what did not.
"""

from __future__ import annotations

import json
import sys

import run
import workloads

# per-layer metrics that must be nonzero on each workload; the rest of
# the per-layer list only has to be present
EXERCISED = {
    "max3lin-verify": [
        "sparsepoly.shifted_term_map.s", "sparsepoly.shifted_term_map.calls",
        "sparsepoly.shifted_term_map.us_per_call",
        "sparsepoly.shifted_term_map.terms_out",
        "oracles.search_min_sparsity.s", "oracles.search_min_sparsity.self_s",
        "oracles.search_min_sparsity.points",
        "oracles.maxsat.s", "oracles.maxsat.points",
        "max3lin.encode_max3lin.s",
        "max3lin.count_satisfied.s", "max3lin.count_satisfied.calls",
    ],
    "hn-roundtrip": [
        "oracles.verify_hn_roundtrip.s", "oracles.verify_hn_roundtrip.self_s",
        "oracles.verify_hn_roundtrip.solution_points",
        "oracles.verify_hn_roundtrip.shift_points",
        "oracles.zero_sum_yield",
        "hn_reduce.shift_instance.s", "hn_reduce.shift_instance.calls",
        "sparsepoly.SparsePoly.shift.s", "sparsepoly.SparsePoly.shift.calls",
        "sparsepoly.SparsePoly.shift.terms_out",
        "hn_reduce.shift_to_solution.s", "hn_reduce.shift_to_solution.calls",
        "quadratizer.check_solution.s", "quadratizer.check_solution.calls",
        "quadratizer.extend_solution.s", "quadratizer.extend_solution.calls",
        "hn_reduce.reduce_hn.s", "hn_reduce.build_hn_instance.s",
        "hn_reduce.build_hn_instance.terms_out",
        "quadratizer.normalize_constants.s", "quadratizer.quadratize_sparse.s",
    ],
    "construct": [
        "hn_reduce.reduce_hn.s", "hn_reduce.build_hn_instance.s",
        "hn_reduce.build_hn_instance.terms_out",
        "quadratizer.quadratize_circuit.s", "quadratizer.quadratize_circuit.aux_vars",
        "quadratizer.normalize_constants.s",
        "amplifier.amplify.s", "amplifier.amplify.terms_out",
        "amplifier.amplified_shift.s",
        "sparsepoly.SparsePoly.mul.s", "sparsepoly.SparsePoly.mul.terms_out",
        "sparsepoly.SparsePoly.shift.s", "sparsepoly.text.s", "sparsepoly.text.bytes",
        "max3lin.encode_max3lin.s",
        "max3lin.count_satisfied.s", "max3lin.count_satisfied.calls",
    ],
}
ALWAYS = ["trace.instance_s.p50", "trace.untraced_instance_s.p50"]
SEED = 7


def _corrupting(wl):
    def make_specs(*args):
        rounds = wl.make_specs(*args)
        wl.corrupt(rounds[0][0])
        return rounds
    return wl._replace(make_specs=make_specs)


def main():
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = {trace: [m["name"] for m in declared[key]]
             for trace, key in ((0, "end_to_end"), (1, "per_layer"))}
    errors = []
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            report, result = run.run(workload, SEED, 0.5, trace, workloads.TINY)
            where = "%s trace %d" % (workload, trace)
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                errors.append("%s: result keys %s" % (where, sorted(result)))
            if sorted(result["metrics"]) != sorted(names[trace]):
                errors.append("%s: metrics differ from BENCHMARK.json: %s"
                              % (where, sorted(set(result["metrics"])
                                               ^ set(names[trace]))))
            if not result["correct"] or result["failed"] or report["problems"]:
                errors.append("%s: failures %s" % (where, report["problems"]))
            wanted = EXERCISED[workload] + ALWAYS if trace else names[0]
            for name in wanted:
                value = result["metrics"].get(name, {}).get("value")
                if not isinstance(value, (int, float)) or value <= 0:
                    errors.append("%s: %s is %r" % (where, name, value))
        wl = workloads.WORKLOADS[workload]
        workloads.WORKLOADS[workload] = _corrupting(wl)
        try:
            report, result = run.run(workload, SEED, 0.5, 0, workloads.TINY)
        finally:
            workloads.WORKLOADS[workload] = wl
        if report["failed_frac"] <= 0 or result["correct"]:
            errors.append("%s: a corrupted expected value went unnoticed"
                          % workload)
    for error in errors:
        print("selftest: " + error)
    print("selftest: %s" % ("FAILED" if errors else "ok"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
