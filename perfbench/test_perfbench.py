"""Tests of the benchmark itself: determinism of the seeded inputs and
failure counts, and that the checkers catch deliberate corruption.

    python3 -m pytest perfbench/test_perfbench.py

Run from the root of a checkout (susy_pt is imported from ./src).
"""

import itertools
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import susy_pt  # noqa: E402
import susy_pt.cli  # noqa: E402
import workloads  # noqa: E402


def _run_ops(workload, seed, count, tmp_path):
    executor = workloads.Executor(susy_pt, tmp_path)
    checker = workloads.ReferenceChecker(tmp_path)
    outcomes = []
    for op in itertools.islice(workloads.operations(workload, seed), count):
        out = executor.run(op)
        checker.queue(out)
        outcomes.append(out)
    checker.finish()
    return outcomes


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_operations(workload):
    first = list(itertools.islice(workloads.operations(workload, 7), 50))
    again = list(itertools.islice(workloads.operations(workload, 7), 50))
    assert first == again
    if workload != "verify-default":  # its single operation takes no inputs
        other = list(itertools.islice(workloads.operations(workload, 8), 50))
        assert other != first


def test_oracle_blocks_are_stratified():
    ops = list(itertools.islice(workloads.operations("oracle-fd", 3), 3 * len(workloads.FD_BLOCK)))
    for i in range(0, len(ops), len(workloads.FD_BLOCK)):
        block = ops[i:i + len(workloads.FD_BLOCK)]
        assert sorted((o["n_points"], o["richardson"]) for o in block) == sorted(workloads.FD_BLOCK)


def _run_census(workload, tmp_path):
    tmp_path.mkdir()
    executor = workloads.Executor(susy_pt, tmp_path)
    checker = workloads.ReferenceChecker(tmp_path)
    outcomes = [executor.run(op) for op in workloads.census(workload)]
    for out in outcomes:
        checker.queue(out)
    checker.finish()
    return outcomes


@pytest.mark.parametrize("workload, count", [("states-highn", 100), ("oracle-fd", 10)])
def test_same_seed_gives_same_failures(workload, count, tmp_path):
    # the timed draw stays where the program meets its reference, so the
    # same failures are none at all, whatever the seed
    for seed in (11, 12):
        tmp = tmp_path / str(seed)
        tmp.mkdir()
        outcomes = _run_ops(workload, seed, count, tmp)
        assert [(o.op, o.failure) for o in outcomes if o.failure] == []


def test_timed_draw_stays_in_resolved_ranges():
    for op in itertools.islice(workloads.operations("oracle-fd", 5), 500):
        key = (op["n_points"], op["richardson"])
        lo, hi = workloads.FD_K_RESOLVED.get(key, workloads.FD_K_RANGE)
        assert lo <= op["k"] <= hi
    for op in itertools.islice(workloads.operations("states-highn", 5), 250):
        assert [q["kind"] for q in op["queries"]] == ["eigenfunction", "hierarchy"]
        for q in op["queries"]:
            assert 0 <= q["n"] <= workloads.VERIFIED_LEVEL
            assert q["k"] / workloads.STATE_K_STEP == round(q["k"] / workloads.STATE_K_STEP)
            assert (q["k"] + q["n"] - 1.0) + 1.0 == q["k"] + q["n"]


def test_census_counts_documented_defects(tmp_path):
    # the census is fixed, and at the seed it misses in the documented
    # classes only; a fix lowers these counts
    assert workloads.census("states-highn") == workloads.census("states-highn")
    assert workloads.census("verify-default") == []
    fd = _run_census("oracle-fd", tmp_path / "fd")
    assert {(o.op["n_points"], o.op["richardson"], o.op["k"]) for o in fd if o.failure} <= {
        (1024, False, 100.0), (1024, True, 1.25)}
    states = _run_census("states-highn", tmp_path / "states")
    failed = [o for o in states if o.failure]
    assert all(o.known_defect for o in fd + states if o.failure)
    assert all(o.op["n"] > workloads.VERIFIED_LEVEL for o in failed)
    rounding = [o for o in failed if workloads.RAISE_ROUNDING_MSG in o.failure]
    assert [o.op["k"] for o in rounding] in ([], [3.340797161813536])


def test_verify_check_flags_k_corruption():
    small = dict(params_set=[susy_pt.ModelParams(1.0, 1.0, 2.0)], n_max=4, grid_n=1024)
    clean = workloads.Outcome({"kind": "verify"}, 0.0)
    workloads.check_verify(clean, susy_pt.run_all(**small).to_json())
    assert clean.failure is None

    corrupt = workloads.Outcome({"kind": "verify"}, 0.0)
    workloads.check_verify(corrupt, susy_pt.run_all(k_corruption=1e-3, **small).to_json())
    assert "ladder" in corrupt.failure
    assert not corrupt.known_defect


@pytest.mark.parametrize("perturbation", [1e-2, 1e-5])
def test_fd_check_flags_perturbed_eigenvalue(perturbation, tmp_path):
    op = {"kind": "fd", "k": 10.0, "pot": "plus", "n_points": 1024, "richardson": False}
    lam = susy_pt.delta_eigenvalues_fd(susy_pt.ModelParams(1.0, 1.0, op["k"]), "plus", 5, 1024)
    bad = list(lam)
    bad[2] *= 1.0 + perturbation

    checker = workloads.ReferenceChecker(tmp_path)
    clean, corrupt = workloads.Outcome(op, 0.0), workloads.Outcome(op, 0.0)
    workloads.check_fd(clean, lam)
    workloads.check_fd(corrupt, bad)
    checker.queue(clean)
    checker.queue(corrupt)
    checker.finish()
    assert clean.failure is None
    # whether or not the contract tolerance catches it, the same-matrix
    # reference does, and a solver error is never a known defect
    assert corrupt.failure is not None
    assert not corrupt.known_defect


def test_state_check_flags_perturbed_sample(tmp_path):
    op = {"kind": "states", "queries": [
        {"kind": "eigenfunction", "n": 5, "k": 3.0, "epsilon": 2.0},
        {"kind": "hierarchy", "n": 7, "k": 3.5, "epsilon": 1.0}]}
    executor = workloads.Executor(susy_pt, tmp_path)
    checker = workloads.ReferenceChecker(tmp_path)
    clean = executor.run(op)
    corrupt = executor.run(op)
    corrupt.samples = corrupt.samples.copy()
    corrupt.samples[700] += 1e-6
    checker.queue(clean)
    checker.queue(corrupt)
    checker.finish()
    assert clean.failure is None
    assert "Gegenbauer" in corrupt.failure
    assert not corrupt.known_defect


def test_known_defect_classes():
    high = workloads.Outcome({"kind": "eigenfunction", "n": 40, "k": 2.5, "epsilon": 1.0}, 0.0)
    high.reference = {"type": "state", "n": 40, "k": 2.5, "epsilon": 1.0}
    workloads.apply_reference(high, 1e-3)
    assert high.failure and high.known_defect

    low = workloads.Outcome({"kind": "eigenfunction", "n": 16, "k": 2.5, "epsilon": 1.0}, 0.0)
    low.reference = {"type": "state", "n": 16, "k": 2.5, "epsilon": 1.0}
    workloads.apply_reference(low, 1e-3)
    assert low.failure and not low.known_defect

    miss = workloads.Outcome({"kind": "fd"}, 0.0)
    miss.fail("contract miss", known=True)
    miss.reference = {"type": "fd"}
    workloads.apply_reference(miss, 1e-12)
    assert miss.known_defect
    workloads.apply_reference(miss, 1e-3)
    assert not miss.known_defect


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle-fd", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
