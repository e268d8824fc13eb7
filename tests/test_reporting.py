"""``render_json`` writes the bytes of the former ``_jsonable`` + ``json.dumps`` renderer."""

import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracles import render_json_reference
from varbounds import cli, reporting
from varbounds.cli import main
from varbounds.reporting import render_json
from varbounds.sweep import SweepSpec, run_sweep
from varbounds.verify import run_verification

SPIN1_CFG = """
[state]
vector = 0.6+0i 0+0.8i 0+0i

[observables]
a = spin1_lx
b = spin1_lz
"""


class Blob:
    def __init__(self, data):
        self.data = data

    def to_json_dict(self):
        return self.data


class Dict(dict):
    pass


class List(list):
    pass


class Str(str):
    pass


def rendered_by_cli(argv, capsys, monkeypatch):
    """stdout of ``main(argv)`` and the object its JSON report was rendered from."""
    seen = []

    def recording(obj):
        seen.append(obj)
        return render_json(obj)

    monkeypatch.setattr(reporting, "render_json", recording)
    monkeypatch.setattr(cli, "render_json", recording)
    assert main(argv) == 0
    assert len(seen) == 1
    return capsys.readouterr().out, seen[0]


@pytest.mark.parametrize("argv", [
    ["compute"],
    ["sweep", "--preset", "fig1"],
    ["sweep", "--preset", "fig2"],
    ["sweep", "--preset", "fig3"],
    ["sweep", "--preset", "fig4"],
    ["verify", "--seed", "7"],
    ["optimize", "--objective", "product"],
    ["optimize", "--objective", "sum"],
    ["optimize", "--objective", "reverse_product"],
], ids=" ".join)
def test_cli_reports_match_the_reference(argv, tmp_path, capsys, monkeypatch):
    if argv[0] in ("compute", "optimize"):
        cfg = tmp_path / "spin1.cfg"
        cfg.write_text(SPIN1_CFG)
        argv = [*argv, "--config", str(cfg)]
    out, obj = rendered_by_cli(argv, capsys, monkeypatch)
    reference = render_json_reference(obj)
    assert render_json(obj) == reference
    assert out == reference


def test_library_reports_match_the_reference():
    for preset in ("fig1", "fig2", "fig3", "fig4"):
        table = run_sweep(SweepSpec(preset=preset))
        assert len(table.rows) == 181
        assert render_json(table) == render_json_reference(table)
    report = run_verification(200, [2, 3], 7)
    assert render_json(report) == render_json_reference(report)


@pytest.mark.parametrize("value, text", [
    (float("inf"), '"inf"'),
    (-float("inf"), '"-inf"'),
    (float("nan"), '"nan"'),
    (np.float32("-inf"), '"-inf"'),
    (-0.0, "-0.0"),
    (np.bool_(True), "true"),
    (np.int8(-7), "-7"),
    (np.float64(0.1), "0.1"),
    ({1: "a", "1": "b"}, '{\n  "1": "b"\n}'),
    ({"1": "b", 1: "a"}, '{\n  "1": "a"\n}'),
    ({}, "{}"),
    ([], "[]"),
    (np.zeros((2, 0)), "[\n  [],\n  []\n]"),
    ("é\U0001f600", '"\\u00e9\\ud83d\\ude00"'),
])
def test_special_values(value, text):
    assert render_json(Blob(value)) == text + "\n" == render_json_reference(Blob(value))


@pytest.mark.parametrize("value", [1j, np.complex128(1), object(), [1.0, {"x": object()}],
                                   np.array(1.0), np.array(0.0), b"bytes"])
def test_unserializable_values_raise_type_error(value):
    with pytest.raises(TypeError):
        render_json_reference(Blob(value))
    with pytest.raises(TypeError):
        render_json(Blob(value))


def test_render_leaves_no_cyclic_garbage():
    blob = Blob({"rows": [[0.5, None, "ok", float("inf")]] * 20, "meta": {"n": 3, 2: [True]}})
    render_json(blob)
    gc.collect()
    gc.disable()
    try:
        for _ in range(20):
            render_json(blob)
        assert gc.collect() == 0
    finally:
        gc.enable()


keys = st.one_of(st.text(max_size=4), st.integers(-3, 3), st.sampled_from(["1", "-1", "True", "None"]),
                 st.booleans(), st.none(), st.floats(allow_nan=False, width=16), st.builds(Str, st.text(max_size=3)))
leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.sampled_from([0.0, -0.0, float("inf"), -float("inf"), float("nan")]),
    st.text(),
    st.builds(Str, st.text(max_size=5)),
    st.builds(np.bool_, st.booleans()),
    st.builds(np.int64, st.integers(-2**63, 2**63 - 1)),
    st.builds(np.int8, st.integers(-128, 127)),
    st.builds(np.float64, st.floats()),
    st.builds(np.float32, st.floats(width=32)),
    hnp.arrays(st.sampled_from([np.float64, np.int64, np.bool_]),
               hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=3)),
)
payloads = st.recursive(leaves, lambda children: st.one_of(
    st.lists(children, max_size=4),
    st.lists(children, max_size=4).map(tuple),
    st.lists(children, max_size=4).map(List),
    st.dictionaries(keys, children, max_size=4),
    st.dictionaries(keys, children, max_size=4).map(Dict),
), max_leaves=25)


@settings(max_examples=300, deadline=None)
@given(payloads)
def test_same_bytes_as_the_reference(data):
    assert render_json(Blob(data)) == render_json_reference(Blob(data))
