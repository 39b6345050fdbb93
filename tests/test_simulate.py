"""Simulation harness: config parsing, generators, grid runs, summaries."""

import math
import os

import numpy as np
import pytest

from hubertune import (
    FitOptions,
    InputError,
    SingularSystem,
    aggregate,
    generate,
    make_covariance,
    make_signal,
    parse_grid_cells,
    parse_sim_config,
    run_grid,
)
from hubertune.simulate import (
    AGGREGATE_STATS,
    GRID_COLUMNS,
    GRID_METRICS,
    GaussianNoise,
    GridCell,
    GridResult,
    StudentTNoise,
    _median_quartiles,
    pivot_table,
    write_aggregate_csv,
    write_pivot_csv,
)


def csv_row(rec):
    """The record's CSV columns, in order."""
    return [rec[col] for col in GRID_COLUMNS]


def minimal_config_doc(**overrides):
    doc = {
        "n": 30,
        "p": 10,
        "sigma_seed": 5,
        "noise_kind": {"kind": "gaussian", "sigma": 1.0},
        "signal_kind": "sparse",
        "grid": [
            {"huber_scale": 1.0, "lambda": 0.05, "tau": 0.05},
            {"huber_scale": None, "lambda": 0.0, "tau": 0.1},
        ],
        "replications": 2,
        "base_seed": 7,
    }
    doc.update(overrides)
    return doc


class TestConfigParsing:
    def test_minimal_roundtrip(self):
        cfg = parse_sim_config(minimal_config_doc())
        assert cfg.n == 30 and cfg.p == 10
        assert cfg.design_kind == "gaussian"
        assert not cfg.redraw_sigma_per_replication
        assert cfg.noise_kind == GaussianNoise(sigma=1.0)
        assert len(cfg.grid) == 2
        assert cfg.grid[0] == GridCell(huber_scale=1.0, lam=0.05, tau=0.05)
        assert cfg.grid[1].huber_scale is None  # square-loss cell

    def test_integral_float_counts_are_integers(self):
        cfg = parse_sim_config(minimal_config_doc(n=30.0, replications=2.0))
        assert (cfg.n, cfg.replications) == (30, 2)
        assert isinstance(cfg.n, int) and isinstance(cfg.replications, int)

    def test_student_t_noise(self):
        cfg = parse_sim_config(
            minimal_config_doc(noise_kind={"kind": "student_t", "dof": 2})
        )
        assert cfg.noise_kind == StudentTNoise(dof=2.0)

    def test_unknown_field_rejected(self):
        with pytest.raises(InputError, match="typo_field"):
            parse_sim_config(minimal_config_doc(typo_field=1))

    def test_missing_field_rejected(self):
        doc = minimal_config_doc()
        del doc["base_seed"]
        with pytest.raises(InputError, match="base_seed"):
            parse_sim_config(doc)

    def test_unknown_noise_kind(self):
        with pytest.raises(InputError, match="gaussian"):
            parse_sim_config(minimal_config_doc(noise_kind={"kind": "laplace", "b": 1}))

    def test_nonpositive_dof(self):
        with pytest.raises(InputError, match="dof"):
            parse_sim_config(
                minimal_config_doc(noise_kind={"kind": "student_t", "dof": 0})
            )

    def test_negative_sigma_rejected(self):
        with pytest.raises(InputError, match="sigma must be nonnegative"):
            parse_sim_config(
                minimal_config_doc(noise_kind={"kind": "gaussian", "sigma": -1.0})
            )

    def test_negative_lambda_in_cell(self):
        doc = minimal_config_doc(
            grid=[{"huber_scale": 1.0, "lambda": -0.1, "tau": 0.0}]
        )
        with pytest.raises(InputError, match=r"grid\[0\]"):
            parse_sim_config(doc)

    def test_zero_huber_scale_rejected(self):
        doc = minimal_config_doc(grid=[{"huber_scale": 0, "lambda": 0.1, "tau": 0.0}])
        with pytest.raises(InputError, match="huber_scale"):
            parse_sim_config(doc)

    def test_empty_grid_rejected(self):
        with pytest.raises(InputError):
            parse_sim_config(minimal_config_doc(grid=[]))

    def test_cell_extra_key_rejected(self):
        doc = minimal_config_doc(
            grid=[{"huber_scale": 1.0, "lambda": 0.1, "tau": 0.0, "gamma": 2}]
        )
        with pytest.raises(InputError, match="gamma"):
            parse_sim_config(doc)

    def test_custom_signal_length_checked(self):
        with pytest.raises(InputError, match="signal"):
            parse_sim_config(minimal_config_doc(signal_kind=[1.0, 2.0]))

    def test_custom_signal_accepted(self):
        cfg = parse_sim_config(minimal_config_doc(signal_kind=[0.5] * 10))
        np.testing.assert_array_equal(cfg.signal(), np.full(10, 0.5))

    def test_bad_signal_kind_string(self):
        with pytest.raises(InputError):
            parse_sim_config(minimal_config_doc(signal_kind="dense"))

    def test_zero_replications_rejected(self):
        with pytest.raises(InputError, match="replications"):
            parse_sim_config(minimal_config_doc(replications=0))

    def test_design_kind_validated(self):
        cfg = parse_sim_config(minimal_config_doc(design_kind="rademacher"))
        assert cfg.design_kind == "rademacher"
        with pytest.raises(InputError, match="design_kind"):
            parse_sim_config(minimal_config_doc(design_kind="uniform"))

    def test_parse_grid_cells_direct(self):
        cells = parse_grid_cells([{"huber_scale": None, "lambda": 1, "tau": 2}])
        assert cells == (GridCell(huber_scale=None, lam=1.0, tau=2.0),)
        with pytest.raises(InputError):
            parse_grid_cells([])
        with pytest.raises(InputError):
            parse_grid_cells("not a list")


class TestCovariance:
    def test_diagonal_exactly_one(self):
        for p in (1, 7, 50):
            Sigma = make_covariance(p, seed=3)
            np.testing.assert_array_equal(np.diag(Sigma), np.ones(p))

    def test_symmetric_psd(self):
        Sigma = make_covariance(40, seed=9)
        np.testing.assert_array_equal(Sigma, Sigma.T)
        assert np.min(np.linalg.eigvalsh(Sigma)) >= -1e-12

    def test_deterministic_in_seed(self):
        a = make_covariance(20, seed=4)
        b = make_covariance(20, seed=4)
        c = make_covariance(20, seed=5)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_off_diagonal_bounded(self):
        Sigma = make_covariance(30, seed=1)
        off = Sigma - np.diag(np.diag(Sigma))
        assert np.max(np.abs(off)) <= 1.0


class TestSignal:
    def test_values_at_p_1000(self):
        s = make_signal(1000)
        k = 100
        np.testing.assert_array_equal(s[k:], np.zeros(900))
        np.testing.assert_array_equal(s[:k], np.full(k, np.sqrt(1000) / 100))
        # 100 coordinates of squared value 1000/10^4: energy 10.
        assert float(s @ s) == pytest.approx(10.0, rel=1e-12)

    def test_support_size_rounds_up(self):
        assert np.count_nonzero(make_signal(7)) == 1
        assert np.count_nonzero(make_signal(10)) == 1
        assert np.count_nonzero(make_signal(11)) == 2
        assert np.count_nonzero(make_signal(200)) == 20

    def test_energy_scaling(self):
        for p in (10, 55, 200):
            s = make_signal(p)
            assert float(s @ s) == pytest.approx(
                math.ceil(p / 10) * p / 1e4, rel=1e-12
            )


class TestGenerate:
    def test_zero_noise_exact(self):
        p = 6
        Sigma = make_covariance(p, seed=2)
        beta = make_signal(p)
        data, eps = generate(12, p, Sigma, beta, GaussianNoise(sigma=0.0), seed=3)
        np.testing.assert_array_equal(eps, np.zeros(12))
        np.testing.assert_array_equal(data.y, data.X @ beta)

    def test_seed_determinism(self):
        p = 5
        Sigma = make_covariance(p, seed=2)
        beta = make_signal(p)
        noise = StudentTNoise(dof=2.0)
        d1, e1 = generate(15, p, Sigma, beta, noise, seed=9)
        d2, e2 = generate(15, p, Sigma, beta, noise, seed=9)
        d3, e3 = generate(15, p, Sigma, beta, noise, seed=10)
        np.testing.assert_array_equal(d1.X, d2.X)
        np.testing.assert_array_equal(e1, e2)
        assert not np.array_equal(d1.X, d3.X)

    def test_draw_order_design_then_noise(self):
        """X consumes the stream first, then eps: replayable by hand."""
        n, p = 8, 4
        Sigma = make_covariance(p, seed=1)
        beta = make_signal(p)
        data, eps = generate(n, p, Sigma, beta, GaussianNoise(sigma=2.0), seed=77)
        rng = np.random.default_rng(77)
        L = np.linalg.cholesky(Sigma)
        X_manual = rng.standard_normal((n, p)) @ L.T
        eps_manual = 2.0 * rng.standard_normal(n)
        np.testing.assert_array_equal(data.X, X_manual)
        np.testing.assert_array_equal(eps, eps_manual)

    def test_student_t_construction(self):
        """t noise is z over sqrt(chi-square/dof) from the same stream."""
        n, p = 6, 3
        Sigma = make_covariance(p, seed=2)
        beta = np.zeros(p)
        data, eps = generate(n, p, Sigma, beta, StudentTNoise(dof=2.0), seed=13)
        rng = np.random.default_rng(13)
        rng.standard_normal((n, p))  # skip the design draw
        z = rng.standard_normal(n)
        chi = rng.chisquare(2.0, n)
        np.testing.assert_array_equal(eps, z / np.sqrt(chi / 2.0))

    def test_rademacher_design(self):
        p = 4
        Sigma = make_covariance(p, seed=2)
        data, _ = generate(
            10, p, Sigma, np.zeros(p), GaussianNoise(sigma=1.0), seed=3,
            design_kind="rademacher",
        )
        assert set(np.unique(data.X)) == {-1.0, 1.0}

    def test_empirical_covariance_concentrates(self):
        """Law of large numbers: X'X/n approaches Sigma in operator norm."""
        p = 10
        n = 50 * p
        Sigma = make_covariance(p, seed=21)
        data, _ = generate(n, p, Sigma, np.zeros(p), GaussianNoise(sigma=1.0), seed=4)
        emp = data.X.T @ data.X / n
        rel = np.linalg.norm(emp - Sigma, 2) / np.linalg.norm(Sigma, 2)
        assert rel <= 0.2


class TestRunGrid:
    def small_config(self, **overrides):
        return parse_sim_config(
            {
                "n": 40,
                "p": 12,
                "sigma_seed": 11,
                "noise_kind": {"kind": "student_t", "dof": 2},
                "signal_kind": "sparse",
                "grid": [
                    {"huber_scale": 1.0, "lambda": 0.05, "tau": 0.05},
                    {"huber_scale": 1.0, "lambda": 0.1, "tau": 0.01},
                    {"huber_scale": None, "lambda": 0.0, "tau": 0.1},
                ],
                "replications": 4,
                "base_seed": 19,
                **overrides,
            }
        )

    def test_one_trace_sigma_a_per_record(self, monkeypatch):
        """trace[Sigma A] is computed once per record and handed on to the
        oracle criterion."""
        import hubertune.criterion
        import hubertune.diagnostics
        import hubertune.sensitivity
        import hubertune.simulate

        calls = []
        original = hubertune.sensitivity.trace_sigma_A

        def counting(*args):
            calls.append(1)
            return original(*args)

        for module in (
            hubertune.sensitivity,
            hubertune.criterion,
            hubertune.diagnostics,
            hubertune.simulate,
        ):
            monkeypatch.setattr(module, "trace_sigma_A", counting, raising=False)
        records = run_grid(self.small_config(replications=1)).records
        assert len(records) == 3 and not any(rec["failed"] for rec in records)
        assert len(calls) == 3

    def test_one_a_hat_per_record(self, monkeypatch):
        """A_hat is formed once per record, inside trace_sigma_A."""
        import hubertune.sensitivity

        calls, original = [], hubertune.sensitivity.a_hat

        def counting(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(hubertune.sensitivity, "a_hat", counting)
        records = run_grid(self.small_config(replications=2)).records
        assert len(records) == 6 and not any(rec["failed"] for rec in records)
        assert len(calls) == 6

    def test_record_layout(self):
        cfg = self.small_config()
        result = run_grid(cfg)
        assert len(result.records) == 12
        # Canonical (replication, cell) order.
        expected = [(rep, cell.lam) for rep in range(4) for cell in cfg.grid]
        actual = [(rec["replication"], rec["lambda"]) for rec in result.records]
        assert actual == expected

    def test_rerun_bit_identical(self):
        cfg = self.small_config()
        a = run_grid(cfg)
        b = run_grid(cfg)
        assert [csv_row(rec) for rec in a.records] == [
            csv_row(rec) for rec in b.records
        ]

    def test_jobs_do_not_change_values(self):
        cfg = self.small_config()
        serial = run_grid(cfg, jobs=1)
        parallel = run_grid(cfg, jobs=3)
        assert [csv_row(rec) for rec in serial.records] == [
            csv_row(rec) for rec in parallel.records
        ]

    def test_newton_attempts_repeat_across_runs_and_jobs(self):
        """The solver's polish counter is deterministic and stays off the CSV."""
        cfg = self.small_config(
            n=30,
            p=60,
            grid=[
                {"huber_scale": 1.0, "lambda": 0.05, "tau": 0.0},
                {"huber_scale": 1.0, "lambda": 0.02, "tau": 0.001},
                {"huber_scale": None, "lambda": 0.05, "tau": 0.01},
            ],
        )
        serial = run_grid(cfg, jobs=1)
        again = run_grid(cfg, jobs=1)
        parallel = run_grid(cfg, jobs=2)
        attempts = [rec["newton_attempts"] for rec in serial.records]
        assert sum(attempts) > 0
        assert [rec["newton_attempts"] for rec in again.records] == attempts
        assert [rec["newton_attempts"] for rec in parallel.records] == attempts
        assert "newton_attempts" not in GRID_COLUMNS
        assert set(serial.records[0]) == {*GRID_COLUMNS, "newton_attempts"}

    def test_noise_term_constant_within_replication(self):
        result = run_grid(self.small_config())
        for rep in range(4):
            vals = {
                rec["eps_norm_sq_over_n"]
                for rec in result.records
                if rec["replication"] == rep
            }
            assert len(vals) == 1

    def test_criteria_fields_populated(self):
        result = run_grid(self.small_config())
        for rec in result.records:
            assert not rec["failed"]
            assert rec["df"] >= 0
            assert rec["trace_v"] > 0
            assert 0 <= rec["constraint_value"] <= 1
            assert rec["crit_adaptive"] >= 0
            assert rec["crit_oracle"] >= 0
            assert rec["oos_error"] >= 0
            assert rec["trace_sigma_a"] >= 0

    def test_nonconvergence_recorded_not_dropped(self):
        cfg = self.small_config(replications=2)
        result = run_grid(cfg, options=FitOptions(max_iterations=1, kkt_tolerance=1e-14))
        assert len(result.records) == 6
        assert all(rec["failed"] for rec in result.records)
        for rec in result.records:  # best-iterate metrics still present
            assert np.isfinite(rec["oos_error"])

    def test_singular_a_hat_read_is_a_failed_record(self, monkeypatch):
        """A_hat raising SingularSystem on first read fails that record only:
        it keeps the fit's own fields and NaN for everything derived."""
        import hubertune.simulate

        original, calls = hubertune.simulate.trace_sigma_A, []

        def patched(*args):
            calls.append(None)
            if len(calls) == 5:
                raise SingularSystem("injected")
            return original(*args)

        cfg = self.small_config(replications=2)
        clean = run_grid(cfg).records
        # Replication 1, cell 1 (record 4) is call 5 of trace_sigma_A, which
        # runs in grid order.
        monkeypatch.setattr(hubertune.simulate, "trace_sigma_A", patched)
        records = run_grid(cfg).records

        assert not any(rec["failed"] for rec in clean)
        c = clean[4]
        derived = [
            "df",
            "trace_v",
            "n_hat",
            "trace_sigma_a",
            "crit_adaptive",
            "crit_oracle",
            "constraint_value",
        ]
        expected = {
            **{col: c[col] for col in GRID_COLUMNS},
            **dict.fromkeys(derived, math.nan),
            "p_hat": 0,
            "failed": True,
            "newton_attempts": c["newton_attempts"],
        }
        assert repr(sorted(records[4].items())) == repr(sorted(expected.items()))
        for i, rec in enumerate(records):
            if i != 4:
                assert csv_row(rec) == csv_row(clean[i])

    def test_redraw_sigma_changes_design(self):
        base = run_grid(self.small_config(replications=2))
        redraw = run_grid(
            self.small_config(replications=2, redraw_sigma_per_replication=True)
        )
        # Replication 0 has XOR offset 0: identical covariance seed, so the
        # first replication agrees and later ones differ.
        rows_base = [csv_row(rec) for rec in base.records]
        rows_redraw = [csv_row(rec) for rec in redraw.records]
        assert rows_base[:3] == rows_redraw[:3]
        assert rows_base[3:] != rows_redraw[3:]

    @pytest.mark.parametrize("redraw, draws", [(False, 1), (True, 4)])
    def test_sigma_is_drawn_once_unless_redrawn(
        self, tmp_path, monkeypatch, redraw, draws
    ):
        """A shared Sigma is drawn once, in the calling process, and forked
        workers inherit it; a redrawn one once per replication. The records
        equal those of a serial run."""
        import hubertune.simulate

        log = tmp_path / "draws.log"
        original = hubertune.simulate.make_covariance

        def logged(p, seed):
            with open(log, "a") as out:
                out.write(f"{os.getpid()}\n")
            return original(p, seed)

        cfg = self.small_config(redraw_sigma_per_replication=redraw)
        fresh = run_grid(cfg, jobs=1)
        monkeypatch.setattr(hubertune.simulate, "make_covariance", logged)
        hubertune.simulate._covariance.cache_clear()
        cached = run_grid(cfg, jobs=2)
        pids = log.read_text().split()
        assert len(pids) == draws
        if not redraw:
            assert pids == [str(os.getpid())]
        assert [csv_row(rec) for rec in cached.records] == [
            csv_row(rec) for rec in fresh.records
        ]

    def test_production_scale_smoke(self):
        """One (1001, 1000) cell at the reference tuning stays in range."""
        n = 1001
        cfg = parse_sim_config(
            {
                "n": n,
                "p": 1000,
                "sigma_seed": 3,
                "noise_kind": {"kind": "student_t", "dof": 2},
                "signal_kind": "sparse",
                "grid": [
                    {
                        "huber_scale": 0.054 * math.sqrt(n),
                        "lambda": 0.036,
                        "tau": 1e-10,
                    }
                ],
                "replications": 1,
                "base_seed": 11,
            }
        )
        rec = run_grid(cfg).records[0]
        assert not rec["failed"]
        assert 0.0 < rec["df"] / n < 1.0
        assert 0.0 < rec["n_hat"] / n < 1.0
        assert rec["trace_v"] > 0.0
        assert 0 < rec["p_hat"] < 1000


class TestAggregate:
    def _result(self):
        return run_grid(
            parse_sim_config(
                {
                    "n": 30,
                    "p": 8,
                    "sigma_seed": 2,
                    "noise_kind": {"kind": "gaussian", "sigma": 1.0},
                    "signal_kind": "sparse",
                    "grid": [
                        {"huber_scale": 1.0, "lambda": 0.05, "tau": 0.05},
                        {"huber_scale": None, "lambda": 0.1, "tau": 0.0},
                    ],
                    "replications": 5,
                    "base_seed": 6,
                }
            )
        )

    def test_header_layout(self):
        header, rows = aggregate(self._result())
        assert header[:5] == ["lambda", "tau", "huber_scale", "n_records", "n_failed"]
        assert len(header) == 5 + len(GRID_METRICS) * len(AGGREGATE_STATS)
        assert "df_mean" in header and "oos_error_q75" in header

    def test_hand_recomputed_stats(self):
        result = self._result()
        header, rows = aggregate(result)
        assert len(rows) == 2
        row = dict(zip(header, rows[0]))
        recs = [r for r in result.records if r["lambda"] == 0.05]
        assert row["n_records"] == 5 and row["n_failed"] == 0
        df_vals = np.array([r["df"] for r in recs])
        assert row["df_mean"] == pytest.approx(float(np.mean(df_vals)), rel=1e-15)
        assert row["df_median"] == pytest.approx(float(np.median(df_vals)), rel=1e-15)
        assert row["df_q25"] == pytest.approx(
            float(np.quantile(df_vals, 0.25)), rel=1e-15
        )
        assert row["oos_error_q75"] == pytest.approx(
            float(np.quantile([r["oos_error"] for r in recs], 0.75)), rel=1e-15
        )

    def test_failed_records_excluded_from_stats(self):
        result = self._result()
        # Mark one replication of the first cell as failed with a poisoned
        # metric; the aggregate over the cell must ignore it.
        poisoned = []
        for rec in result.records:
            if rec["lambda"] == 0.05 and rec["replication"] == 0:
                poisoned.append({**rec, "failed": True, "df": 1e9})
            else:
                poisoned.append(rec)
        header, rows = aggregate(GridResult(records=tuple(poisoned)))
        row = dict(zip(header, rows[0]))
        assert row["n_records"] == 5
        assert row["n_failed"] == 1
        clean = [
            r["df"]
            for r in result.records
            if r["lambda"] == 0.05 and r["replication"] != 0
        ]
        assert row["df_mean"] == pytest.approx(float(np.mean(clean)), rel=1e-15)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            aggregate(GridResult(records=()))

    @pytest.mark.parametrize("kind", ["random", "ties", "signed-zeros", "one-nan"])
    def test_median_quartiles_match_numpy_bit_for_bit(self, kind):
        """aggregate's median and quartiles against np.median and
        np.quantile for n = 1..128, including which zero sign comes back
        when 0.0 and -0.0 tie, and the NaN numpy returns."""
        rng = np.random.default_rng(["random", "ties", "signed-zeros", "one-nan"].index(kind))
        for n in range(1, 129):
            if kind == "random":
                values = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4)
            elif kind == "ties":
                values = rng.integers(-2, 3, n) * 0.5
            elif kind == "signed-zeros":
                values = rng.choice([0.0, -0.0, 0.0, -0.0, 1.0, -1.0], n)
            else:
                values = rng.choice([0.0, -0.0, 1.5, -2.0], n)
                values[rng.integers(n)] = np.nan
            expected = [np.median(values)] + [np.quantile(values, q) for q in (0.25, 0.75)]
            got = _median_quartiles(values)
            assert np.array(got).tobytes() == np.array(expected).tobytes(), n

    def test_csv_writer(self, tmp_path):
        path = tmp_path / "agg.csv"
        write_aggregate_csv(self._result(), path)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 3  # header + two cells
        assert lines[0].startswith("lambda,tau,huber_scale,n_records,n_failed")


class TestPivot:
    def _result(self):
        return run_grid(
            parse_sim_config(
                {
                    "n": 30,
                    "p": 8,
                    "sigma_seed": 2,
                    "noise_kind": {"kind": "gaussian", "sigma": 1.0},
                    "signal_kind": "sparse",
                    "grid": [
                        {"huber_scale": 1.0, "lambda": lam, "tau": tau}
                        for lam in (0.1, 0.02)
                        for tau in (0.05, 0.005)
                    ],
                    "replications": 3,
                    "base_seed": 6,
                }
            )
        )

    def test_layout_sorted_axes(self):
        result = self._result()
        header, rows = pivot_table(result, "oos_error")
        assert header[0] == "lambda"
        assert [float(h) for h in header[1:]] == [0.005, 0.05]
        assert [row[0] for row in rows] == [0.02, 0.1]  # ascending lambda

    def test_cell_value_is_mean(self):
        result = self._result()
        header, rows = pivot_table(result, "df")
        vals = [
            rec["df"]
            for rec in result.records
            if rec["lambda"] == 0.02 and rec["tau"] == 0.05
        ]
        assert rows[0][2] == pytest.approx(float(np.mean(vals)), rel=1e-15)

    def test_missing_pair_blank(self):
        result = self._result()
        # Keep only three of the four (lambda, tau) pairs.
        kept = tuple(
            rec
            for rec in result.records
            if not (rec["lambda"] == 0.1 and rec["tau"] == 0.005)
        )
        header, rows = pivot_table(GridResult(records=kept), "df")
        grid = {(row[0], float(h)): v for row in rows for h, v in zip(header[1:], row[1:])}
        assert grid[(0.1, 0.005)] == ""

    def test_unknown_metric(self):
        with pytest.raises(ValueError):
            pivot_table(self._result(), "not_a_metric")

    def test_csv_writer(self, tmp_path):
        path = tmp_path / "pivot.csv"
        write_pivot_csv(self._result(), "oos_error", path)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 3
        assert lines[0].startswith("lambda,")
