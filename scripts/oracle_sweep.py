#!/usr/bin/env python3
"""Cross-validate the linear-algebra computation against two enumerators.

Samples random valid configurations (the sampler keeps dim P at most 10,
inside the enumerators' cap of 20) and runs unramified_brauer, the
exhaustive enumerator ``brute_force_unramified`` and the rule oracle of
``tests/rule_oracle.py``.  The first enumerates over the spaces that
``model._build_spaces`` built; the second rebuilds the rows, the Q
columns and S from the stated rules, so it also checks the builder.
Reports the dimension statistics.  Exits 1 on the first disagreement, or
on a check that an oracle fails (there should never be one), after
writing the failing configuration in the text format to stderr, so that
``isbbrauer compute`` can rerun it.  A count below 1 is refused (exit 2).
The rule oracle is read from ``tests/rule_oracle.py``, which needs only
the package, not pytest.
"""

import argparse
import collections
import random
import sys
import time
from pathlib import Path

from isbbrauer.brauer import brute_force_unramified, unramified_brauer
from isbbrauer.dsl import emit
from isbbrauer.sampling import random_configuration

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from rule_oracle import rule_oracle

ORACLES = {"brute_force": brute_force_unramified, "rule_oracle": rule_oracle}


def oracle_dims(oracle, cfg) -> tuple[int, int] | str:
    """The oracle's (kernel_dim, h2nr_dim), or the check it failed, as text."""
    try:
        return oracle(cfg)
    except AssertionError as exc:
        return f"failed check ({exc})"


def positive_count(text: str) -> int:
    """``--count``: an integer of at least 1, since a sweep of nothing proves nothing."""
    count = int(text)
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {count}")
    return count


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=positive_count, default=500, help="configurations to sample (at least 1)")
    ap.add_argument("--seed", type=int, default=0, help="base RNG seed")
    args = ap.parse_args()

    rng = random.Random(args.seed)
    h2nr_hist = collections.Counter()
    p_hist = collections.Counter()
    covers = collections.Counter()
    t0 = time.perf_counter()
    for i in range(args.count):
        cfg = random_configuration(rng)
        report = unramified_brauer(cfg)
        for name, oracle in ORACLES.items():
            found = oracle_dims(oracle, cfg)
            if (report.kernel_dim, report.h2nr_dim) != found:
                print(f"MISMATCH at sample {i}: report={report.dims} {name}={found}", file=sys.stderr)
                print(emit(cfg), end="", file=sys.stderr)
                return 1
        h2nr_hist[report.h2nr_dim] += 1
        p_hist[len(report.p_labels)] += 1
        covers[cfg.cover_kind.value] += 1
    elapsed = time.perf_counter() - t0

    print(f"{args.count} configurations, seed {args.seed}, {elapsed:.2f}s, 0 mismatches")
    print("cover kinds: ", dict(covers))
    print("dim P:       ", dict(sorted(p_hist.items())))
    print("h2nr_dim:    ", dict(sorted(h2nr_hist.items())))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
