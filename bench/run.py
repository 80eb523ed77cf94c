"""shiftforge benchmark: one workload, one seed, one measured run.

Run it from the root of a checkout:

    python3 bench/run.py --workload max3lin-verify --seed 1 --seconds 30 --trace 0

It imports shiftforge from src/, generates the workload's inputs from the
seed, runs whole rounds of instances for about --seconds seconds in a
closed loop (one caller; the next instance starts when the previous one
ends), checks every output, and prints two JSON lines: a report with the
run environment and the failures, then the result.  With --trace 1,
alternate rounds run with spans around the calls into each module, and
the result holds the per-layer metrics and the tracing overhead instead
of the end-to-end metrics.  Times in the result are scaled to a fixed
reference speed by the probe in speed.py, because the host's own speed
swings; the report holds the raw ones too.  Metric names and units come
from BENCHMARK.json; bench/README.md explains them.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

import speed
import workloads
from tracer import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# set-up is repeated and its median reported, so one slow import or a
# first compile of the byte code does not decide setup_s
SETUP_REPEATS = 9


def fresh_import():
    """Import shiftforge (and its CLI) from src/ as if for the first time."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules
                 if m == "shiftforge" or m.startswith("shiftforge.")]:
        del sys.modules[name]
    sf = importlib.import_module("shiftforge")
    if Path(sf.__file__).resolve().parent != SRC / "shiftforge":
        raise RuntimeError("shiftforge was imported from %s, not %s"
                           % (sf.__file__, SRC))
    return sf, importlib.import_module("shiftforge.cli")


def _children_cpu():
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def _peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def environment():
    return {
        "cpu_count": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
    }


def _read_json(path, default):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return default


def _write_json(path, data):
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _inputs_hash(inputs):
    """Hash of every generated input file, so a changed generator starts
    new digest entries instead of failing against the old ones."""
    h = hashlib.sha256()
    for path in sorted(inputs.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def _instance_key(workload, size, seed, spec, inputs_hash):
    """Digest-store key: the instance, its spec and the input files."""
    text = json.dumps(spec, sort_keys=True) + inputs_hash
    return "%s/%s/%d/%s/%s" % (workload, size, seed, spec["id"],
                               hashlib.sha256(text.encode()).hexdigest()[:16])


def run(workload, seed, seconds, trace, shapes=workloads.FULL):
    """Set up, measure and check one run; returns (report, result).

    Times are scaled to the reference speed of speed.py; the report also
    holds the raw ones."""
    with speed.SpeedProbe() as probe:
        return _run(probe, workload, seed, seconds, trace, shapes)


def _run(probe, workload, seed, seconds, trace, shapes):
    wl = workloads.WORKLOADS[workload]
    shape = shapes[workload]
    size = "tiny" if shapes is workloads.TINY else "full"
    inputs = OUT / "inputs" / workload
    shutil.rmtree(inputs, ignore_errors=True)
    inputs.mkdir(parents=True)

    plan = wl.plan(fresh_import()[0], seed, shape)
    setup_raw, setup = [], []
    for _ in range(SETUP_REPEATS):
        mark = probe.start()
        sf, cli = fresh_import()
        rounds = wl.make_specs(sf, cli, seed, shape, plan, inputs)
        raw_s, scaled_s, _ = probe.stop(mark)
        setup_raw.append(raw_s)
        setup.append(scaled_s)
    inputs_hash = _inputs_hash(inputs)

    tracer = Tracer(sf) if trace else None
    digest_path = OUT / "digests.json"
    digests = _read_json(digest_path, {})
    times = {False: [], True: []}
    raw = []
    probes = []
    rates = []
    failed = 0
    problems = []
    child_cpu = 0.0
    r = 0
    start = perf_counter()
    while True:
        traced = bool(trace) and r % 2 == 1
        if traced:
            tracer.install()
            cpu_before = _children_cpu()
        round_start = perf_counter()
        round_work = 0
        first = len(times[traced])
        for spec in rounds[r % len(rounds)]:
            mark = probe.start()
            try:
                outcome = wl.execute(sf, spec)
            except Exception as exc:  # noqa: BLE001 - a failed instance
                outcome = exc
            raw_s, scaled_s, probe_s = probe.stop(mark)
            times[traced].append(scaled_s)
            if not traced:
                raw.append(raw_s)
                probes.append(probe_s)
            if isinstance(outcome, Exception):
                failed += 1
                problems.append("%s: raised %r" % (spec["id"], outcome))
                continue
            round_work += outcome.work
            if traced:
                tracer.counts["oracles.zero_sum_ranks"] += spec.get("ranks", 0)
            found = wl.check(spec, outcome.values)
            key = _instance_key(workload, size, seed, spec, inputs_hash)
            digest = hashlib.sha256(
                "\n".join(outcome.lines).encode() + b"\0" + outcome.written
            ).hexdigest()
            if digests.setdefault(key, digest) != digest:
                found.append("digest %s differs from an earlier run" % digest[:12])
            if found:
                failed += 1
                problems.extend("%s: %s" % (spec["id"], p) for p in found)
        if traced:
            tracer.uninstall()
            child_cpu += _children_cpu() - cpu_before
        else:
            rates.append(round_work / sum(times[traced][first:]))
        r += 1
        # stop when the next round would end more than half a round past
        # the deadline, so a run measures about `seconds` whatever the
        # round length; a traced run needs one untraced and one traced round
        now = perf_counter()
        if (now - start + (now - round_start) / 2 > seconds
                and r >= (2 if trace else 1)):
            break

    attempted = len(times[False]) + len(times[True])
    untraced = times[False]
    values = {
        "setup_s": statistics.median(setup),
        "instance_s.p50": statistics.median(untraced),
        "work_per_s": statistics.median(rates),
        "peak_rss_mb": _peak_rss_mb(),
    }
    if trace:
        values.update(tracer.summary())
        values["oracles.pool.child_cpu_s"] = child_cpu
        values["oracles.maxsat.points"] = values.get(
            "oracles.maxsat.max3lin.count_satisfied.calls", 0)
        ranks = values.get("oracles.zero_sum_ranks", 0)
        values["oracles.zero_sum_yield"] = (
            values.get("oracles.verify_hn_roundtrip.shift_points", 0) / ranks
            if ranks else 0)
        values["trace.instance_s.p50"] = statistics.median(times[True])
        values["trace.untraced_instance_s.p50"] = values["instance_s.p50"]
        values["trace.overhead_frac"] = (
            values["trace.instance_s.p50"] / values["instance_s.p50"] - 1)
        tracer.write(OUT / ("spans-%s.tsv" % workload))

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = declared["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0) if trace
                           else values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    throughput = "terms_per_s" if workload == "construct" else "points_per_s"
    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "shape": shape, "environment": environment(),
        "probe_s.nominal": speed.PROBE_S,
        "probe_s.mean_runs": probes,
        "setup_s.runs": setup,
        "setup_s.raw_runs": setup_raw,
        "instances": attempted,
        "instance_s.p50.count": len(untraced),
        "instance_s.runs": untraced,
        "instance_s.raw_runs": raw,
        "instance_s.raw_p50": statistics.median(raw),
        "work_per_s.rounds": rates,
        "trace.instance_s.p50.count": len(times[True]),
        "failed_frac": failed / attempted,
        throughput: values["work_per_s"],
        "problems": problems,
    }
    _write_json(digest_path, digests)
    _write_json(OUT / ("result-%s-trace%d.json" % (workload, trace)),
                dict(report, metrics=metrics, all_values=values))
    return report, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "shiftforge" / "__init__.py").is_file():
        print("bench: no shiftforge sources at %s; run from the root of a "
              "checkout" % SRC, file=sys.stderr)
        return 2
    report, result = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
