#!/usr/bin/env python3
"""Cross-validate the linear-algebra computation against brute force.

Samples random valid configurations (the sampler keeps dim P at most 10,
inside the enumerator's cap of 20), runs both unramified_brauer and the
exhaustive enumerator, and reports the dimension statistics.  Exits
nonzero on the first disagreement (there should never be one).
"""

import argparse
import collections
import random
import sys
import time

from isbbrauer.brauer import brute_force_unramified, unramified_brauer
from isbbrauer.sampling import random_configuration


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=500, help="configurations to sample")
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
        oracle = brute_force_unramified(cfg)
        if (report.kernel_dim, report.h2nr_dim) != oracle:
            print(f"MISMATCH at sample {i}: report={report.dims} oracle={oracle}", file=sys.stderr)
            print(cfg, file=sys.stderr)
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
