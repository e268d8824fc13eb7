import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from varbounds.errors import ConfigError, UnknownBoundId, UnknownPreset
from varbounds.linalg import QuantumState, pauli_operators
from varbounds.reporting import emit, render_csv, render_json
from varbounds.sweep import BOUND_IDS, SweepSpec, compute_instance, run_sweep

CHEAP = ("rs_product", "fidelity_product")


def small_sweep(preset, bounds=None, count=5):
    return run_sweep(SweepSpec(preset=preset, theta_count=count, bounds=bounds))


class TestRunSweep:
    def test_default_grid_has_181_rows(self):
        table = run_sweep(SweepSpec(preset="fig1", bounds=()))
        assert len(table.rows) == 181
        thetas = table.column("theta")
        assert thetas[0] == 0.0
        assert thetas[-1] == pytest.approx(np.pi)
        assert np.all(np.diff(thetas) > 0)

    def test_fig1_spot_row(self):
        table = small_sweep("fig1", bounds=CHEAP)
        row = {c: v for c, v in zip(table.columns, table.rows[0])}
        assert row["exact_product"] == pytest.approx(0.25, abs=1e-12)
        assert row["rs_product"] == pytest.approx(0.25, abs=1e-12)
        assert row["fidelity_product"] == pytest.approx(0.25, abs=1e-12)

    def test_fig2_spot_row(self):
        table = small_sweep("fig2", bounds=("parallelogram_sum",))
        row = {c: v for c, v in zip(table.columns, table.rows[0])}
        assert row["exact_sum"] == pytest.approx(1.0, abs=1e-12)
        assert row["parallelogram_sum"] == pytest.approx(1.0, abs=1e-12)

    def test_fig4_spot_row_at_pi(self):
        table = small_sweep("fig4")
        row = {c: v for c, v in zip(table.columns, table.rows[-1])}
        assert row["theta"] == pytest.approx(np.pi)
        assert row["exact_sum"] == pytest.approx(1.75, abs=1e-12)
        assert row["dw_variance_sum"] == pytest.approx(3.5 - np.sqrt(3.0), abs=1e-12)

    def test_metadata_echo(self):
        t1 = small_sweep("fig1", bounds=())
        assert t1.metadata["observables"] == ["spin1_lx", "spin1_ly"]
        assert t1.metadata["state_family"] == "spin1_cos_sin"
        t3 = small_sweep("fig3")
        assert t3.metadata["observables"] == ["pauli_x", "pauli_z"]
        assert t3.metadata["state_family"] == "qubit_bloch_fig3"
        assert "sigma_y" in t3.metadata["sigma2_reading"]
        # a sweep draws no random numbers and runs no search
        assert not {"rng", "optimizer"} & set(t3.metadata)

    def test_empty_bounds_gives_exact_columns_only(self):
        table = small_sweep("fig1", bounds=())
        assert table.columns == ("theta", "exact_product", "exact_sum")

    def test_undefined_cell_encoding(self):
        table = small_sweep("fig3")
        row0 = table.rows[0]
        idx = table.columns.index("reverse_fidelity_product")
        assert row0[idx] is None
        assert "hypothesis" in row0[idx + 1]
        # all later rows of this family are defined
        for row in table.rows[1:]:
            assert row[idx] is not None
            assert row[idx + 1] == "ok"

    def test_row_invariants_lower_le_exact_le_upper(self):
        table = run_sweep(SweepSpec(preset="fig4", theta_count=25))
        exact = table.column("exact_sum")
        upper = table.column("dw_variance_sum")
        mask = ~np.isnan(upper)
        assert np.all(upper[mask] >= exact[mask] - 1e-10)
        table = run_sweep(
            SweepSpec(preset="fig2", theta_count=9,
                      bounds=("parallelogram_sum", "mp_sum_2"))
        )
        exact = table.column("exact_sum")
        for bid in ("parallelogram_sum", "mp_sum_2"):
            assert np.all(table.column(bid) <= exact + 1e-10)

    def test_dev_sum_comparison_column(self):
        table = run_sweep(
            SweepSpec(preset="fig4", theta_count=9, bounds=("dw_deviation_sum",))
        )
        assert "exact_dev_sum" in table.columns
        assert "delta_a_minus_b" in table.columns
        dev = table.column("exact_dev_sum")
        weak = table.column("delta_a_minus_b")
        statuses = table.status_column("delta_a_minus_b")
        for value, exact, status in zip(weak, dev, statuses):
            assert status == ("holds" if value >= exact - 1e-12 else "fails")
        bound = table.column("dw_deviation_sum")
        mask = ~np.isnan(bound)
        assert np.all(bound[mask] >= dev[mask] - 1e-10)

    def test_unknown_preset_and_bound(self):
        with pytest.raises(UnknownPreset):
            run_sweep(SweepSpec(preset="fig9"))
        with pytest.raises(UnknownBoundId):
            run_sweep(SweepSpec(preset="fig1", bounds=("nope",)))

    def test_grid_needs_two_points(self):
        with pytest.raises(ConfigError):
            SweepSpec(preset="fig1", theta_count=1)

    def test_custom_sweep(self):
        sx, sy, _ = pauli_operators()
        spec = SweepSpec(
            preset="custom",
            state_family="qubit_bloch_fig3",
            observables=(sx, sy),
            bounds=CHEAP,
            theta_count=7,
        )
        table = run_sweep(spec)
        assert len(table.rows) == 7
        exact = table.column("exact_product")
        for bid in CHEAP:
            assert np.all(table.column(bid) <= exact + 1e-10)

    def test_optimized_gap_metadata(self):
        spec = SweepSpec(preset="fig1", theta_count=3,
                         bounds=("optimized_product",))
        table = run_sweep(spec)
        gap = table.metadata["optimized_product_gap"]
        assert gap["min"] >= -1e-10  # never exceeds the exact product
        assert gap["max"] < 0.05  # aligned seed saturates this family


class TestComputeInstance:
    def test_all_bounds_pure(self):
        sx, sy, _ = pauli_operators()
        state = QuantumState.pure([1.0, 0.0])
        out = compute_instance(state, sx, sy)
        assert set(out["bounds"]) == set(BOUND_IDS)
        assert out["exact"]["product"] == pytest.approx(1.0)
        assert out["bounds"]["rs_product"]["value"] == pytest.approx(1.0)
        assert out["bounds"]["dw_variance_sum"]["value"] == pytest.approx(2.0)

    def test_mixed_skips_pure_only(self):
        sx, _, sz = pauli_operators()
        state = QuantumState.mixed(np.diag([0.6, 0.4]))
        out = compute_instance(state, sx, sz)
        assert out["bounds"]["basis_product"]["status"] == "mixed state unsupported"
        assert out["bounds"]["fidelity_product"]["defined"]


class TestEmission:
    def test_csv_layout(self, tmp_path):
        table = small_sweep("fig4", count=3)
        text = render_csv(table)
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(table.columns)
        assert len(lines) == 1 + 3
        first = lines[1].split(",")
        # theta column formatted at 17 significant digits
        assert first[0] == "0.0000000000000000e+00"
        # undefined cell is empty with reason text alongside
        idx = table.columns.index("dw_variance_sum")
        assert first[idx] == ""
        assert "non-null" in first[idx + 1]

    def test_float_formatting_17_digits(self):
        table = small_sweep("fig1", bounds=("rs_product",), count=3)
        text = render_csv(table)
        cell = text.strip().split("\n")[2].split(",")[1]
        assert len(cell.split("e")[0].replace(".", "").replace("-", "")) == 17

    def test_json_round_trip_exact(self):
        table = small_sweep("fig3", count=4)
        text = render_json(table)
        parsed = json.loads(text)
        redumped = json.dumps(parsed, indent=2, sort_keys=True) + "\n"
        assert redumped == text
        assert parsed["metadata"]["preset"] == "fig3"
        assert parsed["rows"][0][3] is None

    def test_emit_writes_file(self, tmp_path):
        table = small_sweep("fig4", count=3)
        path = tmp_path / "out.csv"
        text = emit(table, "csv", str(path))
        assert path.read_text() == text

    def test_emit_env_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("VARBOUNDS_OUT", str(tmp_path))
        table = small_sweep("fig4", count=3)
        emit(table, "json", "report.json")
        assert (tmp_path / "report.json").exists()

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            emit(small_sweep("fig4", count=3), "yaml")
