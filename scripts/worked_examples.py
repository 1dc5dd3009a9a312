#!/usr/bin/env python3
"""Run the built-in examples and the toric resolution end to end.

Reproduces the two headline numbers (both built-ins have a 2-torsion
unramified class) and the certified resolution of the uv = xyz cone.
For JSON reports, run ``isbbrauer compute FILE --json``.
"""

import sys

from isbbrauer import cli, dsl, toric


def main() -> int:
    for name in dsl.BUILTIN_NAMES:
        print(f"=== {name} ===")
        code = cli.run(["example", name], sys.stdout, sys.stderr)
        if code != 0:
            return code
        print()

    print("=== toric resolution of uv = xyz ===")
    report = toric.resolve_demo()
    print("subdivision order:", " -> ".join(map(str, report.candidates)))
    for step in report.steps:
        status = "support ok" if step.support_ok else "SUPPORT CHANGED"
        print(f"  insert {step.ray}: {len(step.fan.maximal_cones)} maximal cones, {status}")
    print("final fan smooth:", report.smoothness.smooth)
    return 0 if report.smoothness.smooth else 1


if __name__ == "__main__":
    raise SystemExit(main())
