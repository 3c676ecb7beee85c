import functools
import json
import math
import re

import numpy as np
import pytest

from susy_pt import ModelParams, delta_eigenvalue, delta_eigenvalues_fd, energy_squared, mass_from_k
from susy_pt import commutator_check, evaluate, factorization_residual, interior_grid, v_minus, v_plus
from susy_pt import verify as verify_mod
from susy_pt import Wavefunction, ladder, wavefun
from susy_pt.model import K_MAX
from susy_pt.verify import (
    DEFAULT_BATTERY,
    SUITE_NAMES,
    run_all,
    run_nonrel_limit,
)

SMALL = dict(n_max=4, grid_n=1024)


def _forbid_suites_and_records(monkeypatch):
    """Make any suite or grid record that run_all starts fail the test,
    for checks that must reject their input before either runs."""

    def no_suite(*args):
        raise AssertionError("a suite ran")

    def no_record(*args):
        raise AssertionError("a grid record was built")

    suites = tuple((name, scope, no_suite, tol) for name, scope, _, tol in verify_mod._SUITES)
    monkeypatch.setattr(verify_mod, "_SUITES", suites)
    monkeypatch.setattr(verify_mod, "_grid_record", no_record)


FAST_SUITES = ("equidistance", "nonrel_limit", "shape_invariance")
IDENTITY_SUITES = ("shape_invariance", "factorization", "commutator", "numeric_cross_check")
STATE_SUITES = ("eigen_residual", "partner_eigen_residual", "ladder", "build_up")
PER_K_SUITES = STATE_SUITES + IDENTITY_SUITES
STATE_TOL = 5e-9  # the amplitude-relative state suites' tolerance


class TestRunAll:
    def test_default_battery_all_pass(self):
        report = run_all(n_max=6, grid_n=1024)
        assert report.all_passed
        assert [s.name for s in report.suites] == list(SUITE_NAMES)
        for s in report.suites:
            assert (s.worst_residual <= s.tolerance) == (s.status == "pass")

    def test_each_suite_listed_exactly_once(self):
        report = run_all(params_set=[ModelParams(1.0, 1.0, 2.0)], **SMALL)
        names = [s.name for s in report.suites]
        assert len(names) == len(set(names)) == len(SUITE_NAMES)

    def test_corrupted_k_fails_ladder_suite(self):
        # deliberate +1e-3 shift of k inside the expected ladder factors
        report = run_all(
            params_set=[ModelParams(1.0, 1.0, 2.0)],
            suites=["ladder"],
            k_corruption=1e-3,
            **SMALL,
        )
        (ladder,) = report.suites
        assert ladder.status == "fail"
        assert not report.all_passed

    @pytest.mark.parametrize("richardson, delta", [(False, 3e-3), (True, 3e-6)])
    def test_perturbed_eigenvalue_fails_numeric_cross_check(self, monkeypatch, richardson, delta):
        # n(n+2k) scaled by 1 + delta must fail the default cross-check:
        # it reads 2.96e-3 against 1e-3, and with richardson 2.97e-6
        # against 1e-6; unperturbed, 3.94e-6 and 1.81e-8 pass
        (clean,) = run_all(suites=["numeric_cross_check"], richardson=richardson).suites
        assert clean.status == "pass"
        exact = verify_mod.delta_eigenvalue
        monkeypatch.setattr(verify_mod, "delta_eigenvalue", lambda q, n: exact(q, n) * (1.0 + delta))
        report = run_all(suites=["numeric_cross_check"], richardson=richardson)
        (mutated,) = report.suites
        assert mutated.status == "fail" and mutated.worst_residual > mutated.tolerance
        assert not report.all_passed

    @pytest.mark.parametrize("name", ["eigen_residual", "partner_eigen_residual"])
    def test_perturbed_eigenvalue_fails_eigen_residual_suites(self, monkeypatch, name):
        # the recurrence rows are a live check: n(n+2k) scaled by
        # 1 + 1e-7 must fail against 5e-9 (both read 1.0e-7; unperturbed,
        # both read < 1e-14)
        (clean,) = run_all(suites=[name]).suites
        assert clean.status == "pass"
        exact = verify_mod.delta_eigenvalue
        monkeypatch.setattr(verify_mod, "delta_eigenvalue", lambda q, n: exact(q, n) * (1.0 + 1e-7))
        (mutated,) = run_all(suites=[name]).suites
        assert mutated.tolerance == STATE_TOL
        assert mutated.status == "fail" and mutated.worst_residual > mutated.tolerance

    @pytest.mark.parametrize(
        "holder, attr, name",
        [("verify", "delta_eigenvalue", "ladder"), ("ladder", "_ground_norm", "build_up"),
         ("wavefun", "_ground_norm", "orthonormality")],
    )
    def test_perturbed_reference_fails_its_suite(self, monkeypatch, holder, attr, name):
        # each suite compares two independent representations: n(n+2k) in
        # ladder's factors, the chains' ground norms or the states' norms
        # scaled by 1 + 1e-7 must fail against 5e-9 (the per-k ladder and
        # build_up, amplitude-relative) or 1e-8 (orthonormality, per
        # model); they read 1.2e-6, 1.0e-7 and 2.0e-7 (unperturbed
        # 1.3e-13, 7.4e-12 and 8.9e-16)
        (clean,) = run_all(suites=[name]).suites
        assert clean.status == "pass"
        mod = {"verify": verify_mod, "ladder": ladder, "wavefun": wavefun}[holder]
        exact = getattr(mod, attr)
        monkeypatch.setattr(mod, attr, lambda *args: exact(*args) * (1.0 + 1e-7))
        (mutated,) = run_all(suites=[name]).suites
        assert mutated.tolerance == (1e-8 if name == "orthonormality" else STATE_TOL)
        assert mutated.status == "fail" and mutated.worst_residual > mutated.tolerance

    @pytest.mark.parametrize(
        "attr, name, delta",
        [("v_plus", "shape_invariance", 1e-7), ("energy", "equidistance", 1e-7),
         ("mass_from_k", "nonrel_limit", 1e-4)],
    )
    def test_perturbed_model_formula_fails_its_suite(self, monkeypatch, attr, name, delta):
        # the model suites check the closed forms they read: V_+ or E_n
        # scaled by 1 + 1e-7 must fail (they read 2.1e-6 against 1e-10 and
        # 1.0e-7 against 1e-12; unperturbed 1.8e-15 and 8.9e-16).  The
        # nonrelativistic limit reads the mass: a relative error of 1e-7
        # moves E_n - m by 1e-7 of itself, under the suite's 1e-5 at
        # k = 1e6 (its residual is 1.25e-7), so it takes 1e-4 there, which
        # breaks the decrease in k (inf)
        (clean,) = run_all(suites=[name]).suites
        assert clean.status == "pass"
        exact = getattr(verify_mod, attr)
        monkeypatch.setattr(verify_mod, attr, lambda *args: exact(*args) * (1.0 + delta))
        (mutated,) = run_all(suites=[name]).suites
        assert mutated.status == "fail" and mutated.worst_residual > mutated.tolerance

    @pytest.mark.parametrize("name", ["factorization", "commutator"])
    def test_perturbed_operator_term_fails_its_suite(self, monkeypatch, name):
        # the operator suites check the kernels they run through: the
        # cos^(kappa+2) factor row of the Delta formula, or tan(wx) on the
        # record, scaled by 1 + 1e-7 must fail against 1e-8; they read
        # 3.4e-7 and 2.0e-7 (unperturbed 5.9e-15 and 3.8e-14)
        (clean,) = run_all(suites=[name]).suites
        assert clean.status == "pass"
        if name == "factorization":
            exact = ladder._delta_factors

            def mutated(*args):
                wall, f1, f2, f3 = exact(*args)
                return wall, f1, f2, f3 * (1.0 + 1e-7)

            monkeypatch.setattr(ladder, "_delta_factors", mutated)
        else:
            exact = wavefun.Samples.tan.func
            monkeypatch.setattr(wavefun.Samples, "tan", property(lambda rec: exact(rec) * (1.0 + 1e-7)))
        (mutated,) = run_all(suites=[name]).suites
        assert mutated.tolerance == 1e-8
        assert mutated.status == "fail" and mutated.worst_residual > mutated.tolerance

    def test_suite_subset_selection(self):
        report = run_all(suites=["equidistance"], **SMALL)
        assert [s.name for s in report.suites] == ["equidistance"]

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            run_all(suites=["no_such_suite"], **SMALL)

    def test_empty_suite_selection_rejected_before_any_suite(self, monkeypatch):
        # it returned a report of no suites whose all_passed was True
        _forbid_suites_and_records(monkeypatch)
        with pytest.raises(ValueError, match="at least one suite"):
            run_all(suites=[], **SMALL)

    def test_empty_battery_rejected(self):
        with pytest.raises(ValueError):
            run_all(params_set=[], **SMALL)

    def test_n_max_validation(self):
        with pytest.raises(ValueError):
            run_all(n_max=17)
        with pytest.raises(ValueError):
            run_all(n_max=-1)
        with pytest.raises(ValueError, match="nonnegative integer"):
            run_all(n_max=2.5)

    @pytest.mark.parametrize("k", [K_MAX, K_MAX - 0.5])
    def test_rejects_partner_level_above_k_max(self, k, monkeypatch):
        # k itself is admitted, but the partner suites build level k+1;
        # rejected before any suite runs, with the partner level named
        _forbid_suites_and_records(monkeypatch)
        with pytest.raises(ValueError, match=rf"partner level k\+1 = {k + 1.0!r} exceeds K_MAX"):
            run_all(params_set=[DEFAULT_BATTERY[0], ModelParams(1.0, 1.0, k)], **SMALL)

    @pytest.mark.parametrize("battery", [[1, 2], [DEFAULT_BATTERY[0], None], [DEFAULT_BATTERY[0], (1.0, 1.0, 2.0)]])
    def test_rejects_battery_entry_that_is_not_model_params(self, battery, monkeypatch):
        # run_all([1, 2]) leaked AttributeError from the partner-level check
        _forbid_suites_and_records(monkeypatch)
        bad = next(p for p in battery if not isinstance(p, ModelParams))
        with pytest.raises(ValueError, match=f"^params_set entries must be ModelParams, got {re.escape(repr(bad))}$"):
            run_all(battery, **SMALL)

    @pytest.mark.parametrize("params_set", [ModelParams(1.0, 1.0, 2.0), 3, 2.5, object()])
    def test_rejects_params_set_that_is_not_a_battery(self, params_set, monkeypatch):
        # one model, or anything not iterable, leaked TypeError from tuple(params_set)
        _forbid_suites_and_records(monkeypatch)
        with pytest.raises(ValueError, match="^params_set must be an iterable of ModelParams, got "):
            run_all(params_set, **SMALL)

    @pytest.mark.parametrize("grid_n", [0, 15, 15.5, True, math.nan, math.inf, 16385, 2.0**60])
    def test_rejects_bad_grid_n_before_any_suite(self, grid_n, monkeypatch):
        # the bound of discretize_delta, checked next to n_max: neither a
        # wasted run of the other suites nor a subset run that never meets it
        _forbid_suites_and_records(monkeypatch)
        with pytest.raises(ValueError, match="grid_n must be"):
            run_all(grid_n=grid_n)
        with pytest.raises(ValueError, match="grid_n must be"):
            run_all(grid_n=grid_n, suites=["ladder"])

    def test_grid_n_cap_named_and_admitted(self):
        # 65536 took 1.7 s in numeric_cross_check alone; the message names
        # the cap, and the cap itself runs
        assert verify_mod.MAX_GRID_N == 16384
        with pytest.raises(ValueError, match=r"^grid_n must be in 16\.\.MAX_GRID_N = 16384, got 65536$"):
            run_all(grid_n=65536, suites=["equidistance"])
        report = run_all(params_set=[ModelParams(1.0, 1.0, 2.0)], suites=["equidistance"], grid_n=16384)
        assert report.meta["grid_n"] == 16384

    def test_grid_n_stored_as_int(self):
        report = run_all(params_set=[ModelParams(1.0, 1.0, 2.0)], suites=["equidistance"], grid_n=16.0)
        assert type(report.meta["grid_n"]) is int
        assert '"grid_n": 16,' in report.to_json()

    def test_one_samples_record_per_model_and_grid(self, monkeypatch):
        # run_all builds one record of a model's 2001-point grid only where
        # a per-k suite runs, on the first model of each k (eps = 0.5 in
        # the battery), which eigen_residual, partner, ladder, build_up,
        # factorization and commutator share; a model that repeats a k
        # builds none (12 records before the state suites ran per k);
        # orthonormality builds one record of its 55 x 16 Gram nodes per
        # model; no suite calls inner_product, which integrates through
        # wavefun.quadrature
        builds = []
        quadratures = []
        real_samples = wavefun.samples

        def counting_samples(params, x):
            rec = real_samples(params, x)
            builds.append(rec.size)
            return rec

        for mod in (wavefun, verify_mod):
            monkeypatch.setattr(mod, "samples", counting_samples)
        monkeypatch.setattr(wavefun, "quadrature", lambda *args: quadratures.append(args))
        assert run_all().all_passed
        assert builds == [880, 2001] * 4 + [880] * 8
        assert quadratures == []

    def test_each_row_set_started_once_per_run(self, monkeypatch):
        # the suites build their states where they read them, but every
        # row those states read is the memo of a record: one recurrence
        # pass starts per set of rows, 20 in all (36 while the state
        # suites ran per model): level k on orthonormality's 880 nodes for
        # every model, and levels k and k+1 on the shared 2001-point grid
        # record of the first model of each k; a suite with a record of
        # its own would start its sets again
        starts = []
        real = wavefun._recurrence

        def counting(rec, k, *args):
            if k not in rec._rows:
                starts.append((rec.size, k))
            return real(rec, k, *args)

        for mod in (wavefun, verify_mod):
            monkeypatch.setattr(mod, "_recurrence", counting)
        assert run_all().all_passed
        assert len(starts) == 20
        first = DEFAULT_BATTERY[:4]  # eps = 0.5, one model of each k
        assert [p.k for p in first] == sorted({p.k for p in DEFAULT_BATTERY})
        assert starts == [
            row for p in DEFAULT_BATTERY
            for row in (((880, p.k), (2001, p.k), (2001, p.k + 1.0)) if p in first else ((880, p.k),))
        ]

    def test_each_suite_alone_matches_the_full_run_to_the_bit(self):
        # the grid record is shared by every suite of a model: what one suite
        # reads must not depend on which others ran before it; w not a
        # power of two and two models of one k, so the per-k suites skip one
        battery = [ModelParams(1.0, 0.7, 3.7), ModelParams(1.3, 1.1, 3.7), ModelParams(0.9, 1.0, 2.5)]
        full = run_all(params_set=battery, n_max=6, grid_n=1024)
        for s in full.suites:
            (alone,) = run_all(params_set=battery, suites=[s.name], n_max=6, grid_n=1024).suites
            assert alone.worst_residual.hex() == s.worst_residual.hex(), s.name

    @pytest.mark.parametrize(
        "per_model",
        [[[0.5, 2.0], [1.0]], [[math.nan, 3.0], [1.0]], [[1.0], [math.nan, 3.0]], [[], []], [[], [0.0]]],
    )
    def test_worst_residual_follows_max_across_models(self, per_model, monkeypatch):
        # the worst residual folds the per-model streams in model order by
        # max's rule: a leading NaN stays, a later one is passed over
        streams = iter(per_model)
        suites = tuple(
            (name, scope, (lambda p, record, run: next(streams)) if name == "orthonormality" else suite, tol)
            for name, scope, suite, tol in verify_mod._SUITES
        )
        monkeypatch.setattr(verify_mod, "_SUITES", suites)
        battery = [ModelParams(1.0, 1.0, 2.0), ModelParams(1.0, 0.5, 2.0)]
        (suite,) = run_all(params_set=battery, suites=["orthonormality"], **SMALL).suites
        want = max((r for stream in per_model for r in stream), default=0.0)
        assert suite.worst_residual.hex() == float(want).hex()

    def test_identity_suites_call_once_per_distinct_k(self, monkeypatch):
        # 20 test polynomials at 2 levels, and 20 at 1, for each of the 4
        # distinct k of the battery (480 and 240 calls when they ran per
        # model); one FD solve per distinct k; the nonrel_limit sequence once
        calls = dict.fromkeys(
            ("factorization_residual", "commutator_check", "delta_eigenvalues_fd", "run_nonrel_limit"), 0
        )
        for attr in calls:
            def wrapper(*args, attr=attr, real=getattr(verify_mod, attr), **kwargs):
                calls[attr] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(verify_mod, attr, wrapper)
        assert run_all().all_passed
        assert calls == {
            "factorization_residual": 160,
            "commutator_check": 80,
            "delta_eigenvalues_fd": 4,
            "run_nonrel_limit": 1,
        }

    def test_level_rows_formed_once_as_read_only_lists(self, monkeypatch):
        # every suite of a model reads the rows of the one record its
        # factory builds: one level-0 row per set (a pass starts there)
        # and, after all the suites, each set's read-only rows to the
        # orders its suites read
        p = ModelParams(1.0, 1.0, 2.0)
        starts = []
        real = wavefun._ground_norm
        monkeypatch.setattr(wavefun, "_ground_norm", lambda w, k: starts.append(k) or real(w, k))
        builds = []
        record = functools.cache(lambda: builds.append(p) or verify_mod._grid_record(p))
        run = verify_mod._Run(4, 1024, False, 0.0)
        for name in ("eigen_residual", "partner_eigen_residual", "ladder", "build_up"):
            suite = next(fn for n, _, fn, _ in verify_mod._SUITES if n == name)
            list(suite(p, record, run))
        assert builds == [p]
        starts = [k for k in starts if k in (2.0, 3.0)][:2]  # build_up's chains take their own norms
        assert starts == [2.0, 3.0]
        for k, levels in ((2.0, 5), (3.0, 4)):
            rows = record()._rows[k][-1]
            assert type(rows) is list and [len(level) for level in rows] == [levels] * 3
            assert not any(row.flags.writeable for level in rows for row in level)

    def test_level_rows_work_counts(self, monkeypatch):
        # the eigen-residual suites read Delta from the rows, so the only
        # apply_delta calls are factorization_residual's 160 (556 with
        # the 396 the suites made); build_up raises the 17 chains of the
        # first model of each k together, 16 lock-step steps (1632 steps
        # when each chain ran alone), and ladder's 64 raise_ calls each
        # form one term (608 _first_order calls, 864 while the state
        # suites ran per model); 1092 Horner passes (1116 while the P''
        # of a degree-1 test polynomial had a Horner row of its own
        # rather than the record's zero row, 1268 per model), none of
        # them on an eigenstate's level (1724 with the 384 of
        # ladder's monomial images and the monomial states' own, 3308
        # when every table row and Delta term had its own); Delta's
        # factor rows once per level set and once per apply_delta call,
        # 8 + 160 (24 + 160 per model); no hypergeometric coefficient at
        # all
        calls = dict.fromkeys(("apply_delta", "_delta_factors", "_first_order", "_horner"), 0)
        build_up_steps = []
        holders = {"apply_delta": [ladder], "_delta_factors": [verify_mod, ladder],
                   "_first_order": [ladder], "_horner": [wavefun]}
        for attr, mods in holders.items():
            def wrapper(*args, attr=attr, real=getattr(mods[0], attr), **kwargs):
                calls[attr] += 1
                return real(*args, **kwargs)

            for mod in mods:
                monkeypatch.setattr(mod, attr, wrapper)
        real_chains = verify_mod._raising_chains

        def counting_chains(p, ns):
            before = calls["_first_order"]
            out = real_chains(p, ns)
            build_up_steps.append(calls["_first_order"] - before)
            return out

        monkeypatch.setattr(verify_mod, "_raising_chains", counting_chains)

        def no_series(*args):
            raise AssertionError("a hypergeometric coefficient was formed")

        monkeypatch.setattr(wavefun, "hypergeometric_coefficients", no_series)
        assert "apply_delta" not in vars(verify_mod)
        assert run_all().all_passed
        assert calls == {"apply_delta": 160, "_delta_factors": 168, "_first_order": 608, "_horner": 1092}
        assert build_up_steps == [16] * 4

    @pytest.mark.parametrize(
        "suites, sets, rows",
        [(["ladder"], 0, 0), (["build_up"], 0, 0), (["ladder", "build_up", "orthonormality"], 0, 0),
         (["eigen_residual"], 4, 4 * 17), (["partner_eigen_residual"], 4, 4 * 16),
         (["ladder", "eigen_residual"], 4, 4 * 17)],
    )
    def test_delta_rows_formed_only_for_the_eigen_suites(self, monkeypatch, suites, sets, rows):
        # Delta rows are formed only by the suite that reads them, and only
        # for its own set, on the first model of each of the 4 distinct k
        # (12 sets and 12 * 17 rows while the suites ran per model):
        # ladder alone made 396 unread rows, build_up alone 204, and
        # ladder with eigen_residual formed the partner's set too (24
        # sets, 12 * 33 rows)
        calls = {"_delta_factors": 0, "_delta_rows": 0}
        for attr in calls:
            def wrapper(*args, attr=attr, real=getattr(verify_mod, attr)):
                calls[attr] += 1
                return real(*args)

            monkeypatch.setattr(verify_mod, attr, wrapper)
        assert run_all(suites=suites).all_passed
        assert calls == {"_delta_factors": sets, "_delta_rows": rows}

    @pytest.mark.parametrize(
        "suites, orders",
        [(["orthonormality"], {}), (["build_up"], {0: 1}), (["ladder"], {0: 2, 1: 2}),
         (["eigen_residual"], {0: 3}), (["partner_eigen_residual"], {1: 3}),
         (["build_up", "ladder", "eigen_residual"], {0: 3, 1: 2})],
    )
    def test_rows_formed_to_the_derivative_order_read(self, monkeypatch, suites, orders):
        # values for build_up, P' for ladder, P'' for the eigen suites,
        # on the grid record of set k (0) and of the partner set (1):
        # the pass formed P' and P'' whatever the suites read
        grids = []
        real = wavefun.samples

        def keeping(params, x):
            rec = real(params, x)
            if rec.size == verify_mod._GRID_POINTS:
                grids.append((params, rec))
            return rec

        for mod in (wavefun, verify_mod):
            monkeypatch.setattr(mod, "samples", keeping)
        assert run_all(suites=suites).all_passed
        assert len(grids) == (len({p.k for p in DEFAULT_BATTERY}) if orders else 0)
        for p, rec in grids:
            got = {j: len(rec._rows[k][-1]) for j, k in ((0, p.k), (1, p.k + 1.0)) if k in rec._rows}
            assert got == orders, (p, got)

    def test_each_suite_runs_on_the_first_model_of_each_scope_key(self, monkeypatch):
        # per model, per distinct k or once per run; a repeated model runs
        # nothing again, so the report is that of the battery without it
        a, b, c = ModelParams(1.0, 0.7, 3.7), ModelParams(1.3, 1.1, 3.7), ModelParams(0.9, 1.0, 2.5)
        calls = []

        def recording(name, suite):
            def wrapper(p, record, run):
                calls.append((name, p))
                return suite(p, record, run)

            return wrapper

        suites = tuple(
            (name, scope, recording(name, suite), tol) for name, scope, suite, tol in verify_mod._SUITES
        )
        monkeypatch.setattr(verify_mod, "_SUITES", suites)
        reports = []
        for battery in ([a, b, c], [a, b, a, c, b]):
            calls.clear()
            reports.append(run_all(params_set=battery, **SMALL).suites)
            for name in SUITE_NAMES:
                want = [a] if name == "nonrel_limit" else [a, c] if name in PER_K_SUITES else [a, b, c]
                assert [p for n, p in calls if n == name] == want, name
        assert reports[0] == reports[1]

    def test_richardson_tightens_numeric_suite(self):
        battery = [ModelParams(1.0, 1.0, 2.0)]
        plain = run_all(params_set=battery, suites=["numeric_cross_check"], **SMALL)
        sharp = run_all(
            params_set=battery, suites=["numeric_cross_check"], richardson=True, **SMALL
        )
        assert plain.suites[0].tolerance == 1e-3
        assert sharp.suites[0].tolerance == 1e-6
        assert sharp.suites[0].status == "pass"
        assert sharp.suites[0].worst_residual < plain.suites[0].worst_residual

    @pytest.mark.parametrize("richardson", ["false", 0, 1, None, 1.0])
    def test_rejects_non_bool_richardson_before_any_suite(self, richardson, monkeypatch):
        # any truthy value ran the Richardson solve and went into meta as given
        _forbid_suites_and_records(monkeypatch)
        with pytest.raises(ValueError, match="richardson must be a bool"):
            run_all(params_set=[ModelParams(1.0, 1.0, 2.0)], suites=["numeric_cross_check"], richardson=richardson)

    @pytest.mark.parametrize("richardson", [np.True_, np.False_, True, False])
    def test_richardson_stored_as_bool(self, richardson):
        report = run_all(params_set=[ModelParams(1.0, 1.0, 2.0)], suites=["equidistance"], richardson=richardson)
        assert report.meta["richardson"] is bool(richardson)
        assert report.suites[0].tolerance == 1e-12

    @pytest.mark.parametrize("n_max", [True, False, np.True_])
    def test_rejects_boolean_n_max(self, n_max):
        # True ran with n_max 1
        with pytest.raises(ValueError, match="level index n must be a nonnegative integer"):
            run_all(n_max=n_max, suites=["equidistance"])

    @pytest.mark.parametrize("value", ["16", None, 1 + 2j, [16]])
    def test_rejects_non_numeric_n_max_and_grid_n(self, value, monkeypatch):
        # "16" leaked TypeError from the comparison with 0
        _forbid_suites_and_records(monkeypatch)
        with pytest.raises(ValueError, match="level index n must be a nonnegative integer"):
            run_all(n_max=value)
        with pytest.raises(ValueError, match="grid_n must be a positive integer"):
            run_all(grid_n=value)

    @pytest.mark.parametrize(
        "k_corruption,match",
        [
            (math.nan, "k_corruption must be finite"),
            (math.inf, "k_corruption must be finite"),
            (-math.inf, "k_corruption must be finite"),
            (-5.0, r"k \+ k_corruption = -2\.0 lies outside \(1, K_MAX"),
            (-1.0, r"k \+ k_corruption = 1\.0 lies outside"),
            (K_MAX, r"k \+ k_corruption = 100000003\.0 lies outside"),
        ],
    )
    def test_rejects_k_corruption_before_any_suite(self, k_corruption, match, monkeypatch):
        # the ladder suite builds level k + k_corruption; out of range it
        # failed inside that suite, after the suites before it had run
        _forbid_suites_and_records(monkeypatch)
        battery = [ModelParams(1.0, 1.0, 3.0), ModelParams(1.0, 1.0, 2.0)]
        with pytest.raises(ValueError, match=match):
            run_all(params_set=battery, suites=["ladder"], k_corruption=k_corruption)
        with pytest.raises(ValueError, match=match):
            run_all(params_set=battery, k_corruption=k_corruption)

    def test_k_corruption_to_k_max_admitted(self):
        p = ModelParams(1.0, 1.0, 2.0)
        (ladder,) = run_all([p], suites=["ladder"], k_corruption=K_MAX - 2.0, **SMALL).suites
        assert ladder.status == "fail"

    def test_equidistance_suite_reports_zero_scale_residual(self):
        report = run_all(
            params_set=[ModelParams(1.0, 1.0, 2.0)], suites=["equidistance"], **SMALL
        )
        assert report.suites[0].worst_residual <= 1e-12


class TestOrthonormalityGram:
    """The Gram matrix must catch a level off unit norm (its diagonal)
    and two levels that are not orthogonal (off it)."""

    P = ModelParams(1.0, 1.0, 2.0)

    def worst(self, monkeypatch, attr, replace):
        real = getattr(verify_mod, attr)
        monkeypatch.setattr(verify_mod, attr, lambda *args: replace(real, *args))
        (suite,) = run_all(params_set=[self.P], suites=["orthonormality"], **SMALL).suites
        assert suite.status == "fail"
        return suite.worst_residual

    def test_scaled_level_fails_on_the_diagonal(self, monkeypatch):
        def build(real, p, n):
            wf = real(p, n)
            if n != 5:
                return wf
            return Wavefunction(p, wf.kappa, None, wavefun._make_state(p.k, n, [np.array([1.0 + 1e-6])]))

        # <(1+e)U, (1+e)U> - 1 = 2e + e^2
        assert self.worst(monkeypatch, "build_eigenfunction", build) == pytest.approx(2e-6 + 1e-12, abs=1e-13)

    def test_mixed_levels_fail_off_the_diagonal(self, monkeypatch):
        # U_0 + e U_2 is no one level's form, so its values are mixed where
        # the suite reads them
        def values(real, wf, x):
            out = real(wf, x)
            if wf.state.n == 0:
                out = out + 1e-6 * real(wavefun.build_eigenfunction(wf.params, 2), x)
            return out

        # <U_0 + e U_2, U_2> = e; the diagonal moves by e^2 alone
        assert self.worst(monkeypatch, "evaluate", values) == pytest.approx(1e-6, abs=1e-13)


class TestReportSerialization:
    def test_json_schema(self):
        report = run_all(params_set=[ModelParams(1.0, 1.0, 2.0)], suites=["equidistance"], **SMALL)
        again = run_all(params_set=[ModelParams(1.0, 1.0, 2.0)], suites=["equidistance"], **SMALL)
        assert report.to_json() == again.to_json()  # deterministic, diffable
        data = json.loads(report.to_json())
        assert set(data) == {"suites", "meta"}
        for suite in data["suites"]:
            assert set(suite) == {"name", "status", "worst_residual", "tolerance"}
        assert {"params_set", "n_max", "grid_n", "richardson"} <= set(data["meta"])
        assert data["meta"]["params_set"] == [{"omega": 1.0, "epsilon": 1.0, "k": 2.0}]

    def test_text_rendering(self):
        report = run_all(params_set=[ModelParams(1.0, 1.0, 2.0)], suites=list(FAST_SUITES), **SMALL)
        text = report.to_text()
        for name in FAST_SUITES:
            assert name in text
        assert "all suites pass" in text


class TestNonrelLimit:
    def test_monotone_decrease_and_small_tail(self):
        rows = run_nonrel_limit(1.0, 1.0, (1e2, 1e3, 1e4, 1e6))
        assert rows[-1].residuals[0] <= 1e-5
        for n in range(6):
            seq = [r.residuals[n] for r in rows]
            assert all(b < a for a, b in zip(seq, seq[1:]))
        # residual at k=100 visibly larger than at k=1e6
        assert rows[0].residuals[0] > 100.0 * rows[-1].residuals[0]

    def test_other_deformations_also_converge(self):
        for eps in (0.5, 2.0):
            rows = run_nonrel_limit(1.0, eps, (1e3, 1e5))
            for n in range(6):
                assert rows[1].residuals[n] < rows[0].residuals[n]

    def test_exact_gap_relation(self):
        # E_n^2 - m^2 = w^2 (n^2 + 2nk + k) exactly, any k; the float
        # subtraction cancels ~k digits, so tolerance carries the E^2 scale
        rng = np.random.default_rng(3)
        for _ in range(200):
            p = ModelParams(
                10.0 ** rng.uniform(-1, 1),
                10.0 ** rng.uniform(-1, 1),
                10.0 ** rng.uniform(math.log10(1.0 + 1e-4), 6.0),
            )
            n = int(rng.integers(0, 6))
            e2 = energy_squared(p, n)
            lhs = e2 - mass_from_k(p) ** 2
            rhs = p.hat_omega**2 * (n * n + 2.0 * n * p.k + p.k)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-14 * e2)

    def test_rejects_non_increasing_sequence(self):
        with pytest.raises(ValueError):
            run_nonrel_limit(1.0, 1.0, (1e3, 1e2))

    def test_rejects_oversized_k(self):
        with pytest.raises(ValueError):
            run_nonrel_limit(1.0, 1.0, (1e2, 1e9))

    def test_mass_column(self):
        (row,) = run_nonrel_limit(1.0, 1.0, (100.0,))
        assert row.mass == pytest.approx(mass_from_k(ModelParams(1.0, 1.0, 100.0)), rel=1e-15)


def _identity_maxima(battery):
    """The worst residual of each identity suite, taken over every model
    of the battery as the suites computed it before they ran once per k."""
    worst = dict.fromkeys(IDENTITY_SUITES, 0.0)
    for p in battery:
        q = ModelParams(1.0, 1.0, p.k)
        for n, lam in enumerate(delta_eigenvalues_fd(q, "minus", 5, SMALL["grid_n"])):
            res = abs(lam - delta_eigenvalue(q, n)) / (1.0 + delta_eigenvalue(q, n))
            worst["numeric_cross_check"] = max(worst["numeric_cross_check"], res)
        x = interior_grid(p, 10_000).points
        ref = v_minus(p.with_k(p.k + 1.0), x)
        res = np.abs(v_plus(p, x) - ref - (2.0 * p.k + 1.0)) / (1.0 + np.abs(ref))
        worst["shape_invariance"] = max(worst["shape_invariance"], float(np.max(res)))
        x = interior_grid(p, 2001).points
        for coeffs in verify_mod._random_test_fns():
            for kappa in (p.k, p.k + 1.0):
                wf = Wavefunction(p, kappa, coeffs)
                scale = 1.0 + float(np.max(np.abs(evaluate(wf, x))))
                res = factorization_residual(p.k, wf, x) / scale
                worst["factorization"] = max(worst["factorization"], res)
            res = commutator_check(p.k, Wavefunction(p, p.k, coeffs), x)
            worst["commutator"] = max(worst["commutator"], res)
    return worst


class TestPerKSuites:
    """shape_invariance, factorization and commutator read the grid only
    through wx, and the FD eigenvalues of numeric_cross_check carry no
    omega or epsilon, so one model per distinct k stands for all of them.
    The state suites compare sqrt(w) u(wx) in units of its own amplitude,
    so the same holds for them up to rounding."""

    def worst(self, battery, names=IDENTITY_SUITES):
        report = run_all(params_set=battery, suites=names, **SMALL)
        return {s.name: s.worst_residual for s in report.suites}

    def test_default_battery_equals_per_model_maximum_to_the_bit(self):
        # the battery's w are powers of two, so wx is exact for every model
        assert self.worst(DEFAULT_BATTERY) == _identity_maxima(DEFAULT_BATTERY)

    def test_one_k_runs_first_model_within_rounding(self, monkeypatch):
        battery = [ModelParams(1.0, eps, 3.7) for eps in (0.7, 1.3)]
        seen = set()
        for attr in ("factorization_residual", "commutator_check"):
            real = getattr(verify_mod, attr)

            def wrapper(k, wf, x, real=real):
                seen.add(wf.params)
                return real(k, wf, x)

            monkeypatch.setattr(verify_mod, attr, wrapper)
        worst = self.worst(battery)
        assert seen == {battery[0]}
        maxima = _identity_maxima(battery)
        for name, res in worst.items():
            assert abs(res - maxima[name]) <= 1e-14, name

    # The rounding bound of each state suite: how far the residuals of a
    # model may lie from those of the first model of its k.  The default
    # battery reads at most 1.5e-15, 7.0e-16, 3.1e-14 and 7.0e-12 (the
    # chains' residual is itself their rounding, up to 1.4e-11); each
    # bound is under 1/100 of the tolerance, so a model the per-k run
    # skips cannot fail where its k's first model passes with that much
    # room.
    STATE_ROUNDING = {
        "eigen_residual": 1e-14,
        "partner_eigen_residual": 1e-14,
        "ladder": 1e-13,
        "build_up": 2e-11,
    }

    RESIDUALS = {"eigen_residual": 17, "partner_eigen_residual": 16, "ladder": 32, "build_up": 17}

    def test_state_suites_match_the_first_model_of_each_k(self):
        # every default model runs the four state suites on a record of
        # its own; its amplitude-relative residuals, level by level, match
        # those of the first model of its k, and the per-k report is the
        # maximum over those first models to the bit.  Two models of
        # w = 1e4 and 1e-4 match too: an absolute residual would move by
        # sqrt(w) = 100 there, far past the bounds
        run = verify_mod._Run(verify_mod.VERIFIED_LEVEL, 4096, False, 0.0)
        models = DEFAULT_BATTERY + (ModelParams(1e4, 1.0, 3.7), ModelParams(1e-4, 1.0, 3.7))
        per_model = {}
        for p in models:
            record = functools.cache(functools.partial(verify_mod._grid_record, p))
            for name, _, suite, _ in verify_mod._SUITES:
                if name in STATE_SUITES:
                    per_model[name, p] = np.array(list(suite(p, record, run)))
        report = {s.name: s for s in run_all(suites=STATE_SUITES).suites}
        for name in STATE_SUITES:
            bound = self.STATE_ROUNDING[name]
            assert bound <= report[name].tolerance / 100, name
            first = {}
            for p in models:
                res = per_model[name, p]
                ref = first.setdefault(p.k, res)
                assert res.shape == ref.shape == (self.RESIDUALS[name],)
                assert np.max(np.abs(res - ref)) <= bound, (name, p)
            assert report[name].worst_residual == max(float(np.max(r)) for r in first.values()), name
            assert report[name].status == "pass"

    def test_state_tolerance_admits_no_more_absolute_error(self):
        # tolerance times the amplitude a state suite divides by, at every
        # default model and every level it compares (U_{k,n}, n <= 16, and
        # U_{k+1,m}, m <= 15), stays within the 1e-8 the suites held as
        # absolute residuals
        report = run_all(params_set=DEFAULT_BATTERY[:1], suites=STATE_SUITES, n_max=1, grid_n=1024)
        assert {s.tolerance for s in report.suites} == {STATE_TOL}
        amplitudes = []
        for p in DEFAULT_BATTERY:
            x = verify_mod._grid_record(p)
            for q, top in ((p, 16), (p.with_k(p.k + 1.0), 15)):
                for n in range(top + 1):
                    amplitudes.append(float(np.max(np.abs(evaluate(wavefun.build_eigenfunction(q, n), x)))))
        assert len(amplitudes) == 12 * 33
        assert 0.5 < min(amplitudes) and max(amplitudes) < 2.0  # 0.58 and 1.95
        assert STATE_TOL * max(amplitudes) <= 1e-8


def test_default_battery_composition():
    assert len(DEFAULT_BATTERY) == 12
    assert {p.epsilon for p in DEFAULT_BATTERY} == {0.5, 1.0, 2.0}
    assert {p.k for p in DEFAULT_BATTERY} == {1.5, 2.0, 3.7, 10.0}


def test_test_polynomials_built_once_read_only():
    fns = verify_mod._random_test_fns()
    assert verify_mod._random_test_fns() is fns
    assert isinstance(fns, tuple) and len(fns) == 20
    assert all(1 <= c.size - 1 <= 8 and c[-1] != 0.0 for c in fns)
    with pytest.raises(ValueError):
        fns[0][0] = 0.0
