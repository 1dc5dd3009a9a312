"""Benchmark of the isbbrauer CLI: four seeded workloads, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package is imported from ``src/`` next to this
directory.  Set-up builds the workload's inputs from the seed, writes them
under ``.bench_state/``, computes the oracle expectations and times a fresh
``import isbbrauer.cli`` several times.  Four child processes, one after
another, then run whole passes over the inputs through ``cli.run`` until the
seconds are up; with ``--trace 1`` a single child runs half the time plainly
and half with every traced function wrapped (see ``tracer.py``).  Op and
import times are scaled by a reference task timed beside them (see
``reference.py``).  Every op is checked against its oracle.  Human-readable
lines come first; the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from oracles import check, parse_output
from reference import REF_S
from tracer import TRACED

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".bench_state"

IMPORT_SAMPLES = 7
# An untraced run is split over this many fresh worker processes, one after
# another: a process's memory layout alone moves op times by about 5%.
WORKERS = 4
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)
TAIL_MIN_BEYOND = 10

_IMPORT_PROBE = (
    "import sys, time; sys.path[:0] = sys.argv[1:3]; import reference; "
    "before = reference.measure(); t = time.perf_counter(); import isbbrauer.cli; "
    "t = time.perf_counter() - t; print(t, (before + reference.measure()) / 2)"
)


def measure_import(samples: int) -> list[tuple[float, float]]:
    """(seconds to ``import isbbrauer.cli``, reference seconds), each in a fresh interpreter.

    One unmeasured import first writes the bytecode cache, so the samples
    time a warm install, as a user's second run would see it.  The reference
    task runs just before and after the import, in the same interpreter.
    """
    times = []
    for i in range(samples + 1):
        proc = subprocess.run(
            [sys.executable, "-I", "-S", "-c", _IMPORT_PROBE, str(SRC), str(HERE)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        if i:
            seconds, ref = map(float, proc.stdout.split())
            times.append((seconds, ref))
    return times


class WorkerError(RuntimeError):
    pass


def run_worker(plan: dict, seconds: float, give_up: float) -> dict:
    """Run ``worker.py`` on the plan for ``seconds`` and return its result.

    ``give_up`` is the ``time.perf_counter()`` reading by which it must end.
    """
    plan_path = STATE / "plan.json"
    plan_path.write_text(json.dumps(dict(plan, seconds=seconds)), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-I", "-S", str(HERE / "worker.py"), str(plan_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=max(1.0, give_up - time.perf_counter()),
    )
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with code {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout)


def scaled(phase: dict) -> list[tuple[int, float, float]]:
    """(input index, latency, busy time) per op, scaled to the reference speed.

    Each op's times are multiplied by REF_S over the mean of the reference
    timings taken just before and just after it.
    """
    refs = phase["refs"]
    out = []
    for i, latency, busy, *_, k in phase["records"]:
        factor = REF_S / ((refs[k] + refs[k + 1]) / 2)
        out.append((i, latency * factor, busy * factor))
    return out


def per_input_median_mean(records, n_inputs: int) -> float:
    """Mean over inputs of each input's median latency.

    With one input this is the plain median.  On a workload of two inputs of
    very different cost, the plain median over all ops would fall between
    the two cost clusters and jump from one to the other; this does not.
    """
    by_input = [[] for _ in range(n_inputs)]
    for i, latency, *_ in records:
        by_input[i].append(latency)
    return statistics.fmean(statistics.median(v) for v in by_input)


def tail(latencies: list[float]) -> tuple[float, float] | None:
    """(percentile, value) for the highest percentile with enough samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        beyond = int(n * (100 - pct) / 100)
        if beyond >= TAIL_MIN_BEYOND:
            return pct, ordered[n - beyond - 1]
    return None


def check_ops(phase: dict, workload, argvs, out_dir: Path) -> tuple[int, list[str], dict]:
    """Judge every op; returns (failed, first failure reasons, digest per input)."""
    verdicts: dict[tuple[int, str, int], str | None] = {}
    digests: dict[int, set[str]] = {}
    failed, reasons = 0, []
    for n, (i, _latency, _busy, rc, digest, _size, _ref) in enumerate(phase["records"]):
        key = (i, digest, rc)
        if key not in verdicts:  # identical bytes get an identical verdict
            text = (out_dir / digest).read_text(encoding="utf-8")
            verdicts[key] = check(workload.expect[i], rc, parse_output(argvs[i], text))
        digests.setdefault(i, set()).add(digest)
        if verdicts[key] is not None:
            failed += 1
            if len(reasons) < 5:
                err = phase["stderr"].get(str(n), "").strip()
                reasons.append(f"op {n} ({' '.join(argvs[i])}): {verdicts[key]}"
                               + (f"; stderr: {err[-300:]}" if err else ""))
    return failed, reasons, digests


def outputs_sha256(digests: dict[int, set[str]], n_inputs: int) -> str | None:
    """One digest over every input's stdout digest, or None if an input's output varied."""
    if any(len(digests.get(i, ())) != 1 for i in range(n_inputs)):
        return None
    h = hashlib.sha256()
    for i in range(n_inputs):
        h.update(next(iter(digests[i])).encode())
    return h.hexdigest()


def compare_digests(key: str, current: dict) -> tuple[str, str]:
    """Compare with the last run of this workload and seed, and with the pinned set."""
    last_path = STATE / "last_digests.json"
    last = json.loads(last_path.read_text()) if last_path.exists() else {}
    pinned_path = HERE / "pinned_digests.json"
    pinned = json.loads(pinned_path.read_text()) if pinned_path.exists() else {}

    def verdict(old):
        if old is None:
            return "no record"
        return "same" if old == current else "CHANGED (" + ", ".join(
            k for k in current if old.get(k) != current[k]) + ")"

    vs_last, vs_pinned = verdict(last.get(key)), verdict(pinned.get(key))
    last[key] = current
    last_path.write_text(json.dumps(last, indent=1, sort_keys=True))
    return vs_last, vs_pinned


def layer_metrics(result: dict, phase: dict, generators_per_op: float) -> dict:
    """Per-layer metrics of the traced phase, as {name: (value per op, unit)}."""
    ops = len(phase["records"])
    m = {}
    layers = result["layers"]
    for name in TRACED:
        calls, inclusive, self_s, _info = layers.get(name, (0, 0.0, 0.0, 0))
        m[f"{name}.calls_per_op"] = (calls / ops, "count")
        m[f"{name}.s"] = (inclusive / ops, "s")
        m[f"{name}.self_s"] = (self_s / ops, "s")
    rref = layers.get("f2.rref", (0, 0.0, 0.0, 0))
    parse = layers.get("dsl.parse", (0, 0.0, 0.0, 0))
    accepted, tried = result["orderings"]
    m["f2.rref.cells"] = (rref[3] / ops, "count")
    m["cli.output_bytes"] = (statistics.fmean(r[5] for r in phase["records"]), "bytes")
    m["cli.generators_per_op"] = (generators_per_op, "count")
    m["dsl.lines_per_s"] = (parse[3] / parse[1] if parse[1] else 0.0, "1/s")
    m["toric.order_accept_ratio"] = (accepted / tried if tried else 0.0, "ratio")
    return m


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "isbbrauer" / "cli.py").is_file():
        print(f"run.py: no package source at {SRC}/isbbrauer", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"run.py: unknown workload {args.workload!r}; choose from {', '.join(workloads.NAMES)}",
              file=sys.stderr)
        return 2

    # ---- set-up: inputs, oracles, import time
    t0 = time.perf_counter()
    workload = workloads.build(args.workload, args.seed)
    in_dir = STATE / "inputs" / args.workload
    out_dir = STATE / "outputs" / args.workload
    for d in (in_dir, out_dir):
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)
    for name, text in workload.files.items():
        (in_dir / name).write_text(text, encoding="utf-8")
    argvs = workload.argv(str(in_dir.relative_to(ROOT)))
    build_s = time.perf_counter() - t0
    import_times = measure_import(IMPORT_SAMPLES)

    # a run that has not ended by then stops its worker and fails
    give_up = time.perf_counter() + 2 * args.seconds + 60
    plan = {
        "src": str(SRC),
        "ops": argvs,
        "trace": bool(args.trace),
        "out_dir": str(out_dir),
    }

    # ---- the measured run, in child processes
    try:
        if args.trace:
            results = [run_worker(plan, args.seconds, give_up)]
            phases = [results[0]["untraced"], results[0]["traced"]]
        else:
            results = []
            start = time.perf_counter()
            for k in range(WORKERS):
                due = start + args.seconds * (k + 1) / WORKERS
                results.append(run_worker(plan, max(0.0, due - time.perf_counter()), give_up))
            phases = [r["untraced"] for r in results]
    except (WorkerError, subprocess.TimeoutExpired) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    n_inputs = len(argvs)
    attempted = failed = 0
    reasons: list[str] = []
    digests: dict[int, set[str]] = {}
    for phase in phases:
        f, r, d = check_ops(phase, workload, argvs, out_dir)
        attempted += len(phase["records"])
        failed += f
        reasons += r
        for i, s in d.items():
            digests.setdefault(i, set()).update(s)
    out_digest = outputs_sha256(digests, n_inputs)
    current = {"inputs": workload.inputs_sha256(), "outputs": out_digest or "varies"}
    vs_last, vs_pinned = compare_digests(f"{args.workload}/{args.seed}", current)

    untraced = [r["untraced"] for r in results]
    ops = [op for phase in untraced for op in scaled(phase)]
    latencies = [latency for _, latency, _ in ops]
    p50 = per_input_median_mean(ops, n_inputs)
    p50_raw = per_input_median_mean([r for phase in untraced for r in phase["records"]], n_inputs)
    ops_per_s = len(ops) / sum(busy for _, _, busy in ops)
    wall = sum(phase["wall_s"] for phase in untraced)
    setup_s = statistics.median(t * REF_S / ref for t, ref in import_times)
    setup_raw = statistics.median(t for t, _ in import_times)
    host = statistics.median(ref for phase in untraced for ref in phase["refs"]) / REF_S
    peak_rss_mb = max(r["peak_rss_mb"] for r in results)
    correct = failed == 0 and out_digest is not None and (not args.trace or results[0]["restored"])

    # ---- report
    w = args.workload
    print(f"workload {w}, seed {args.seed}: {n_inputs} op(s) per pass, closed loop, one client")
    print(f"  set-up: inputs and oracles {build_s:.2f} s; inputs sha256 {current['inputs'][:16]}")
    print(f"  ops: {attempted} attempted, {failed} failed, fail_ratio {failed / attempted:.4f}")
    for line in reasons:
        print(f"  FAILED {line}")
    print(f"  outputs sha256 {current['outputs'][:16]}: vs last run {vs_last}; vs pinned {vs_pinned}")
    print(f"  times below are scaled to the reference speed; the reference task took "
          f"{host:.3f} x {REF_S} s during the loop")
    print(f"  latency_p50_s {p50:.6f} s  (mean over inputs of the per-input median; "
          f"{len(latencies)} samples; unscaled {p50_raw:.6f} s)")
    t = tail(latencies)
    if t is None:
        print(f"  latency_tail_s omitted: {len(latencies)} samples leave fewer than "
              f"{TAIL_MIN_BEYOND} beyond p90")
    else:
        print(f"  latency_tail_s {t[1]:.6f} s  (p{t[0]:g} of {len(latencies)} samples)")
    print(f"  ops_per_s {ops_per_s:.4f} 1/s  ({len(ops)} ops in {len(results)} worker process(es); "
          f"unscaled {len(ops) / wall:.4f} 1/s over {wall:.2f} s)")
    print(f"  setup_s {setup_s:.6f} s  (median of {len(import_times)} fresh "
          f"`import isbbrauer.cli`; unscaled {setup_raw:.6f} s)")
    print(f"  peak_rss_mb {peak_rss_mb:.3f} MB  (largest worker process)")

    if args.trace:
        result, traced = results[0], results[0]["traced"]
        # every op that passed its oracle lists exactly h2nr_dim generators
        generators = [e.get("h2nr_dim", 0) for e in workload.expect]
        gen_per_op = statistics.fmean(generators[r[0]] for r in traced["records"])
        metrics = layer_metrics(result, traced, gen_per_op)
        p50_traced = per_input_median_mean(scaled(traced), n_inputs)
        metrics["trace.overhead_ratio"] = (p50_traced / p50, "ratio")
        print(f"  traced: {len(traced['records'])} ops; restored: {result['restored']}; "
              f"absent names: {', '.join(result['absent']) or 'none'}")
        for name, (value, unit) in metrics.items():
            print(f"  {name} {value:.6g} {unit}")
    else:
        metrics = {
            "latency_p50_s": (p50, "s"),
            "ops_per_s": (ops_per_s, "1/s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
