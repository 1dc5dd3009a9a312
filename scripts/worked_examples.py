#!/usr/bin/env python3
"""Run the built-in examples and the toric resolution end to end.

Reproduces the two headline numbers (both built-ins have a 2-torsion
unramified class) and the certified resolution of the uv = xyz cone,
each through ``cli.run`` as ``isbbrauer example NAME`` and
``isbbrauer toric demo`` print them.  For JSON reports, run
``isbbrauer compute FILE --json``.
"""

import sys

from isbbrauer import cli, dsl


def main() -> int:
    for name in dsl.BUILTIN_NAMES:
        print(f"=== {name} ===")
        code = cli.run(["example", name], sys.stdout, sys.stderr)
        if code != 0:
            return code
        print()

    print("=== toric resolution of uv = xyz ===")
    return cli.run(["toric", "demo"], sys.stdout, sys.stderr)


if __name__ == "__main__":
    raise SystemExit(main())
