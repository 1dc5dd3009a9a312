"""Child process of the benchmark: imports the package and runs ops in a closed loop.

Usage: python3 -I -S perfbench/worker.py PLAN.json

The plan names the package's source directory, the ops of one pass (CLI
argument lists), the seconds to measure, whether to trace, and a directory
for the outputs.  Ops run one at a time through ``cli.run`` with stdout and
stderr captured in memory; whole passes repeat until the time is up.  Each
distinct stdout is written once to the output directory under its sha256, so
the parent can check every op without this process holding the text.  Every
0.5 s or so, between ops, it times the reference task (``reference.py``) so
the parent can scale op times to the host's speed at that moment.  The result
is one JSON document on stdout.
"""

from __future__ import annotations

import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import reference  # noqa: E402


# The reference task runs at most this often, and after every op that took longer.
REF_EVERY_S = 0.5


def run_phase(cli, ops: list[list[str]], seconds: float, out_dir: Path, tracer=None) -> dict:
    """Whole passes over ``ops`` until ``seconds`` have passed.

    Each record is (input index, latency s, busy s, exit code, stdout sha256,
    stdout bytes, reference index).  Busy time adds the capture and hashing
    of the output to the latency.  ``refs`` holds the reference task's times;
    an op ran between ``refs[k]`` and ``refs[k + 1]``, k its reference index.
    """
    clock = time.perf_counter
    records = []
    errors = {}
    seen = set()
    refs = [reference.measure()]
    last_ref = clock()
    n = 0
    start = clock()
    deadline = start + seconds
    while True:
        for i, argv in enumerate(ops):
            out, err = io.StringIO(), io.StringIO()
            if tracer is not None:
                tracer.op = n
            t = clock()
            rc = cli.run(argv, out, err)
            latency = clock() - t
            data = out.getvalue().encode()
            digest = hashlib.sha256(data).hexdigest()
            if digest not in seen:
                seen.add(digest)
                (out_dir / digest).write_bytes(data)
            if rc != 0 and len(errors) < 5:
                errors[n] = err.getvalue()[-2000:]
            records.append((i, latency, clock() - t, rc, digest, len(data), len(refs) - 1))
            n += 1
            if clock() - last_ref >= REF_EVERY_S:
                refs.append(reference.measure())
                last_ref = clock()
        if clock() >= deadline:
            break
    wall = clock() - start
    refs.append(reference.measure())
    return {"wall_s": wall, "records": records, "refs": refs, "stderr": errors}


def main(plan_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    src = Path(plan["src"]).resolve()
    sys.path.insert(0, str(src))
    import isbbrauer.cli as cli
    if src not in Path(cli.__file__).resolve().parents:
        print(f"worker: isbbrauer was imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2

    out_dir = Path(plan["out_dir"])
    ops, seconds = plan["ops"], plan["seconds"]
    result = {}
    if not plan["trace"]:
        result["untraced"] = run_phase(cli, ops, seconds, out_dir)
    else:
        from tracer import Tracer, order_counts, summarize

        result["untraced"] = run_phase(cli, ops, seconds / 2, out_dir)
        tracer = Tracer()
        tracer.install()
        try:
            result["traced"] = run_phase(cli, ops, seconds / 2, out_dir, tracer)
        finally:
            tracer.restore()
        result["restored"] = not tracer.reachable_wrappers()
        result["absent"] = tracer.absent
        result["layers"] = {k: list(v) for k, v in summarize(tracer.spans).items()}
        result["orderings"] = order_counts(tracer.spans)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        sys.exit(2)
    sys.exit(main(sys.argv[1]))
