"""The maps into P are built on read, so only ``compute`` builds them.

``validate`` and ``explain`` read the Q columns and the S vectors as
masks; ``m_qp`` and ``m_sp`` are their transposes, which only the report
prints.  Each is one ``F2Matrix.transpose``, so counting that call through
``cli.run`` shows which commands build them.
"""

import io

import pytest

from isbbrauer import cli, dsl, model
from isbbrauer.f2 import F2Matrix

from test_front_end import ring_source

SOURCES = {"hpt": lambda: dsl.builtin_source("hpt"), "ring400": lambda: ring_source(400)}


def test_the_maps_into_p_are_not_fields_of_the_spaces():
    assert "m_qp" not in model._Spaces._fields
    assert "m_sp" not in model._Spaces._fields


@pytest.mark.parametrize("source", sorted(SOURCES))
@pytest.mark.parametrize(
    "argv,transposes",
    [(["validate"], 0), (["explain"], 0), (["compute"], 2), (["compute", "--json"], 2)],
    ids=["validate", "explain", "compute", "compute-json"],
)
def test_transposes_per_command(monkeypatch, tmp_path, source, argv, transposes):
    calls = []
    transpose = F2Matrix.transpose

    def counted(self):
        calls.append(self)
        return transpose(self)

    monkeypatch.setattr(F2Matrix, "transpose", counted)
    path = tmp_path / f"{source}.cfg"
    path.write_text(SOURCES[source]())
    command, *flags = argv
    assert cli.run([command, str(path), *flags], io.StringIO(), io.StringIO()) == cli.OK
    assert len(calls) == transposes
