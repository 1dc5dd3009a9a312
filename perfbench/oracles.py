"""Read an op's output and judge it against the workload's expectation."""

from __future__ import annotations

import json
import re

_FIELD = re.compile(r"^(kernel_dim|h2nr_dim|smooth): (\S+)$", re.MULTILINE)
_GENERATOR = re.compile(r"^generator g\d+: ", re.MULTILINE)


def parse_output(argv: list[str], text: str) -> dict:
    """The fields an oracle checks, from a text or ``--json`` report.

    Missing fields are absent from the result; a malformed report gives {}.
    """
    if "--json" in argv:
        try:
            doc = json.loads(text)
            return {
                "kernel_dim": doc["dims"]["kernel"],
                "h2nr_dim": doc["dims"]["h2nr"],
                "generators": len(doc["generators"]),
            }
        except (ValueError, KeyError, TypeError):
            return {}
    found: dict = {}
    for key, value in _FIELD.findall(text):
        if key == "smooth":
            found[key] = value == "true"
        elif value.isdigit():
            found[key] = int(value)
    if "h2nr_dim" in found:
        found["generators"] = len(_GENERATOR.findall(text))
    return found


def check(expect: dict, rc: int, parsed: dict) -> str | None:
    """None when the op passes, else the first reason it fails."""
    if rc != 0:
        return f"exit code {rc}"
    for key, want in expect.items():
        got = parsed.get(key)
        if got != want:
            return f"{key} is {got}, expected {want}"
    if "h2nr_dim" in expect and parsed.get("generators") != parsed["h2nr_dim"]:
        return f"{parsed.get('generators')} generators listed, h2nr_dim is {parsed['h2nr_dim']}"
    return None
