import json
import math
import shlex
from pathlib import Path

import numpy as np
import pytest

from susy_pt import MAX_LEVEL, cli
from susy_pt.model import ModelParams, k_from_mass
from susy_pt.wavefun import build_eigenfunction, evaluate


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = [ln for ln in text.strip().splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
    return header, rows


class TestSpectrumCommand:
    def test_ads_levels(self, capsys):
        code, out, _ = run_cli(
            capsys, "spectrum", "--omega", "1", "--epsilon", "1", "--k", "2", "--n-max", "3"
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["n", "e_squared", "e", "delta_eig"]
        assert [r[2] for r in rows] == [2.0, 3.0, 4.0, 5.0]
        assert [r[0] for r in rows] == [0.0, 1.0, 2.0, 3.0]

    def test_mass_flag_echoes_k(self, capsys):
        code, out, _ = run_cli(
            capsys, "spectrum", "--mass", "1.4142135", "--epsilon", "1", "--omega", "1"
        )
        assert code == 0
        comment = out.splitlines()[0]
        assert comment.startswith("# params:")
        k = float(comment.split("k=")[1].split()[0])
        assert k == pytest.approx(2.0, abs=1e-6)

    def test_k_below_one_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "spectrum", "--k", "0.9")
        assert code == 2
        assert "k must exceed 1" in err

    def test_mass_without_finite_k_usage_error(self, capsys):
        # eps^2 w underflows to 0: k would be infinite, not a traceback
        code, out, err = run_cli(capsys, "spectrum", "--mass", "1", "--epsilon", "1e-200")
        assert (code, out) == (2, "")
        assert err.startswith("mass 1.0 ") and err.count("\n") == 1

    def test_k_and_mass_mutually_exclusive(self, capsys):
        code, _, _ = run_cli(capsys, "spectrum", "--k", "2", "--mass", "1.0")
        assert code == 2

    def test_params_required(self, capsys):
        code, _, _ = run_cli(capsys, "spectrum")
        assert code == 2

    def test_csv_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--k", "3.7", "--epsilon", "0.5", "--n-max", "5")
        assert code == 0
        from susy_pt import ModelParams, delta_eigenvalue, energy_squared

        p = ModelParams(1.0, 0.5, 3.7)
        _, rows = parse_csv(out)
        for n, e2, e, d in rows:
            assert e2 == energy_squared(p, int(n))  # 17 digits round-trip
            assert e == math.sqrt(energy_squared(p, int(n)))
            assert d == delta_eigenvalue(p, int(n))

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--k", "2", "--format", "json", "--n-max", "2")
        assert code == 0
        data = json.loads(out)
        assert data["params"]["k"] == 2.0
        assert len(data["levels"]) == 3
        assert data["levels"][1]["e"] == 3.0

    def test_deterministic_output(self, capsys):
        args = ("spectrum", "--k", "3.7", "--epsilon", "2", "--n-max", "8")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "spec.csv"
        code, out, _ = run_cli(capsys, "spectrum", "--k", "2", "--output", str(path))
        assert code == 0 and out == ""
        header, rows = parse_csv(path.read_text())
        assert header[0] == "n" and len(rows) == 9

    @pytest.mark.parametrize("target", [".", "missing/spec.csv"])
    def test_unwritable_output_is_usage_error(self, capsys, tmp_path, target):
        path = tmp_path / target
        code, out, err = run_cli(capsys, "spectrum", "--k", "2", "--output", str(path))
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1

    def test_negative_n_max_rejected(self, capsys):
        code, _, err = run_cli(capsys, "spectrum", "--k", "2", "--n-max", "-1")
        assert code == 2

    def test_n_max_capped_at_max_level(self, capsys):
        # spectrum took any level: --n-max 1000000000 ran for hours
        code, out, err = run_cli(capsys, "spectrum", "--k", "2", "--n-max", str(MAX_LEVEL + 1))
        assert code == 2 and out == ""
        assert err == f"level index n must not exceed {MAX_LEVEL}\n"
        code, out, _ = run_cli(capsys, "spectrum", "--k", "2", "--n-max", str(MAX_LEVEL))
        assert code == 0 and len(parse_csv(out)[1]) == MAX_LEVEL + 1


class TestEigenfunctionCommand:
    def test_sampling_contract(self, capsys):
        code, out, _ = run_cli(
            capsys, "eigenfunction", "--k", "2", "--n", "0", "--samples", "101"
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["x", "value"]
        assert len(rows) == 101
        assert rows[0][1] == 0.0 and rows[-1][1] == 0.0  # exact endpoint zeros
        interior = [v for _, v in rows[1:-1]]
        assert all(v > 0.0 for v in interior)  # nodeless bell for n=0

    def test_odd_level_antisymmetric(self, capsys):
        code, out, _ = run_cli(
            capsys, "eigenfunction", "--k", "2", "--n", "1", "--samples", "51"
        )
        assert code == 0
        _, rows = parse_csv(out)
        vals = np.array([v for _, v in rows])
        # linspace grids are symmetric only to rounding, hence the atol
        assert np.allclose(vals, -vals[::-1], atol=1e-13)

    def test_samples_validation(self, capsys):
        code, _, err = run_cli(capsys, "eigenfunction", "--k", "2", "--samples", "1")
        assert code == 2
        assert "samples" in err

    def test_samples_cap(self, capsys, monkeypatch, tmp_path):
        # the table is built in memory before it is written (1e6 samples
        # took 1.2 s and 292 MB): above MAX_SAMPLES it is a usage error
        # before any state or position is formed; the cap itself passes
        assert cli.MAX_SAMPLES >= 2001  # the goldens and states-highn sample 2001
        path = tmp_path / "cap.csv"
        code, _, _ = run_cli(capsys, "eigenfunction", "--k", "2", "--samples", str(cli.MAX_SAMPLES),
                             "--output", str(path))
        assert code == 0
        assert len(path.read_text().splitlines()) == 3 + cli.MAX_SAMPLES  # params, n, header, rows
        monkeypatch.setattr(cli, "build_eigenfunction", lambda *args: pytest.fail("a state was built"))
        monkeypatch.setattr(cli.np, "linspace", lambda *args: pytest.fail("positions were formed"))
        for samples in (cli.MAX_SAMPLES + 1, 10**6):
            code, out, err = run_cli(capsys, "eigenfunction", "--k", "2", "--samples", str(samples))
            assert code == 2 and out == ""
            assert err == f"--samples must lie in 2..{cli.MAX_SAMPLES}, got {samples}\n"

    def test_level_cap(self, capsys):
        # eigenfunction and hierarchy reject a level with the same message
        for n in ("-1", "2.5", str(MAX_LEVEL + 1)):
            code, _, err = run_cli(capsys, "eigenfunction", "--k", "2", "--n", n)
            h_code, _, h_err = run_cli(capsys, "hierarchy", "--k", "2", "--n", n)
            assert code == h_code == 2
            if n == "2.5":  # argparse: the usage line names the subcommand
                for text in (err, h_err):
                    assert "argument --n: invalid int value: '2.5'" in text
            else:
                assert err == h_err and err.startswith("level index n must")

    def test_unresolved_state_is_usage_error(self, capsys):
        # every level at k = K_MAX is built from its closed-form norm; level
        # 0 at the origin is (1/pi)^(1/4) sqrt(Gamma(1e8+1)/Gamma(1e8+1/2)),
        # 75.1125544934395948 by mpmath (the difference of two log-gamma
        # values printed 75.112559250007877, off by 6.3e-8)
        code, out, _ = run_cli(capsys, "eigenfunction", "--k", "1e8", "--n", "1", "--samples", "5")
        assert code == 0
        code, out, _ = run_cli(capsys, "eigenfunction", "--k", "1e8", "--n", "0", "--samples", "5")
        assert code == 0 and "\n0,75.112554493439603\n" in out
        # verify also builds the partner level k+1, which exceeds K_MAX:
        # one line on stderr and exit 2, not a traceback with exit 1 (the
        # verification-failure code), and before any suite runs
        for k, up in (("1e8", "100000001.0"), ("99999999.5", "100000000.5")):
            code, out, err = run_cli(capsys, "verify", "--k", k)
            assert code == 2 and out == ""
            assert err == f"partner level k+1 = {up} exceeds K_MAX = 1e+08\n"

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "eigenfunction", "--k", "2", "--n", "2", "--samples", "11", "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert len(data["samples"]) == 11
        assert data["n"] == 2

    def test_deterministic_output(self, capsys):
        args = ("eigenfunction", "--k", "1.5", "--n", "3", "--samples", "33")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2


class TestHierarchyCommand:
    def test_empty_chain(self, capsys):
        code, out, _ = run_cli(capsys, "hierarchy", "--k", "2", "--n", "0")
        assert code == 0
        _, rows = parse_csv(out)
        assert rows == []
        final = float(out.split("final_norm=")[1].split()[0])
        assert final == pytest.approx(1.0, abs=1e-8)

    def test_single_step_chain(self, capsys):
        code, out, _ = run_cli(capsys, "hierarchy", "--k", "2", "--n", "1")
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 1
        step, k_level, factor = rows[0]
        assert (step, k_level) == (0.0, 2.0)
        assert factor == pytest.approx(math.sqrt(5.0), rel=1e-15)
        pref = float(out.split("prefactor=")[1].split()[0])
        assert pref == pytest.approx(1.0 / math.sqrt(5.0), rel=1e-12)

    def test_chain_norms_and_final_norm(self, capsys):
        code, out, _ = run_cli(capsys, "hierarchy", "--k", "2", "--n", "4", "--format", "json")
        assert code == 0
        data = json.loads(out)
        k = 2.0
        n = 4
        for j, step in enumerate(data["steps"]):
            k_level = k + n - 1 - j
            assert step["k_level"] == k_level
            assert step["factor"] == pytest.approx(
                math.sqrt((j + 1) * (j + 1 + 2.0 * k_level)), rel=1e-14
            )
        assert data["final_norm"] == pytest.approx(1.0, abs=1e-8)
        # prefactor cancels the accumulated factors exactly
        prod = math.prod(s["factor"] for s in data["steps"])
        assert data["prefactor"] * prod == pytest.approx(1.0, rel=1e-12)

    def test_off_grid_k(self, capsys):
        # (k + 6) + 1 and k + 7 round to different floats at k = 1.312
        code, out, _ = run_cli(capsys, "hierarchy", "--k", "1.312", "--n", "8")
        assert code == 0
        final = float(out.split("final_norm=")[1].split()[0])
        assert final == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("k,n", [("1e6", "64"), ("1e8", "37")])
    def test_overflowing_chain_is_usage_error_alone(self, capsys, k, n):
        # numpy's overflow warning came on stderr before the message
        code, out, err = run_cli(capsys, "hierarchy", "--k", k, "--n", n)
        assert code == 2
        assert out == ""
        assert err == "coefficients must be finite\n"


class TestVerifyCommand:
    def test_fast_suites_pass(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "equidistance", "--suite", "nonrel_limit",
            "--n-max", "4", "--grid-n", "1024",
        )
        assert code == 0
        assert "all suites pass" in out

    def test_single_params_battery(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--k", "2", "--suite", "shape_invariance",
            "--format", "json", "--n-max", "4", "--grid-n", "1024",
        )
        assert code == 0
        data = json.loads(out)
        assert data["meta"]["params_set"] == [{"omega": 1.0, "epsilon": 1.0, "k": 2.0}]
        assert data["suites"][0]["status"] == "pass"

    def test_unknown_suite_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--suite", "bogus")
        assert code == 2

    def test_grid_n_cap_usage_error(self, capsys, monkeypatch):
        # 65536 took 1.7 s in the FD suite and larger grids grew without
        # bound; above MAX_GRID_N no suite runs and the message names the cap
        cap = cli.verify_mod.MAX_GRID_N
        monkeypatch.setattr(cli.verify_mod, "delta_eigenvalues_fd", lambda *args, **kw: pytest.fail("a grid was solved"))
        code, out, err = run_cli(capsys, "verify", "--k", "2", "--suite", "numeric_cross_check",
                                 "--grid-n", str(cap + 1))
        assert code == 2 and out == ""
        assert err == f"grid_n must be in 16..MAX_GRID_N = {cap}, got {cap + 1}\n"

    def test_unwritable_output_fails_before_suites(self, capsys, monkeypatch, tmp_path):
        # the destination is opened first, as a shell redirect is
        def must_not_run(*args, **kwargs):
            pytest.fail("run_all ran before --output was opened")

        monkeypatch.setattr(cli.verify_mod, "run_all", must_not_run)
        path = tmp_path / "missing" / "r.json"
        code, out, err = run_cli(capsys, "verify", "--output", str(path))
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1

    def test_failure_exit_code(self, capsys, monkeypatch):
        from susy_pt import verify as verify_mod

        real = verify_mod.run_all

        def corrupted(*args, **kwargs):
            kwargs["k_corruption"] = 1e-3
            return real(*args, **kwargs)

        monkeypatch.setattr(cli.verify_mod, "run_all", corrupted)
        code, out, _ = run_cli(
            capsys, "verify", "--k", "2", "--suite", "ladder", "--n-max", "4",
            "--grid-n", "1024",
        )
        assert code == 1
        assert "fail" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--omega", "1e200", "--k", "2"],
        ["spectrum", "--omega", "1e150", "--k", "1e8"],
        ["spectrum", "--omega", "1e-200", "--epsilon", "1e-200", "--k", "2"],
        ["eigenfunction", "--omega", "1e-200", "--epsilon", "1e-200", "--k", "2"],
        ["spectrum", "--omega", "1e-300", "--epsilon", "1e300", "--k", "2"],
        # mass = sqrt(2) * 1e300 * 1e50 overflows
        ["hierarchy", "--omega", "1e-250", "--epsilon", "1e300", "--k", "2", "--n", "1",
         "--format", "json"],
    ],
)
def test_out_of_range_params_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", [["spectrum", "--k", "2", "--n-max"], ["verify", "--suite", "equidistance", "--grid-n"]])
def test_integer_no_float_holds_usage_error(capsys, argv):
    # the integer rule's float(value) raised OverflowError, which left
    # main with a traceback
    code, out, err = run_cli(capsys, *argv, "1" + "0" * 400)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and "must be a" in err


def test_unknown_command_usage_error(capsys):
    code, _, _ = run_cli(capsys, "frobnicate")
    assert code == 2


class TestCachedParser:
    """The parser is built once per process; no parse may leak into the next."""

    def test_built_once(self):
        assert cli._parser() is cli._parser()

    def test_append_action_starts_fresh(self, capsys):
        for suite in ("ladder", "build_up"):
            code, out, _ = run_cli(
                capsys, "verify", "--suite", suite, "--n-max", "2", "--format", "json"
            )
            assert code == 0
            assert [s["name"] for s in json.loads(out)["suites"]] == [suite]

    def test_exclusive_group_starts_fresh(self, capsys):
        code, _, _ = run_cli(capsys, "spectrum", "--k", "2")
        assert code == 0
        code, out, err = run_cli(capsys, "spectrum", "--mass", "1.5")
        assert (code, err) == (0, "")
        params = ModelParams(1.0, 1.0, k_from_mass(1.5, 1.0, 1.0))
        assert out.splitlines()[0] == cli._params_comment(params)

    def test_namespaces_match_a_fresh_parser(self):
        argvs = [
            ["verify", "--suite", "ladder", "--suite", "commutator", "--k", "2"],
            ["verify"],
            ["spectrum", "--mass", "1.5", "--format", "json"],
            ["eigenfunction", "--k", "3", "--n", "2"],
            ["hierarchy", "--k", "2"],
        ]
        for argv in argvs:
            fresh = cli._parser.__wrapped__().parse_args(argv)
            assert cli._parser().parse_args(argv) == fresh

    def test_usage_error_then_golden(self, capsys):
        code, out, err = run_cli(capsys, "spectrum", "--k", "2", "--mass", "1")
        assert code == 2 and out == "" and "not allowed with argument" in err
        golden = Path(__file__).parent / "golden" / "eigenfunction_k2_n3.csv"
        code, out, err = run_cli(capsys, "eigenfunction", "--k", "2", "--n", "3", "--samples", "41")
        assert (code, out, err) == (0, golden.read_text(), "")


def _csv_per_value(header, rows, comments=(), trailers=()):
    """The CSV definition, one value at a time."""
    cells = [
        ",".join(format(float(v), ".17g") if isinstance(v, float) else str(v) for v in row)
        for row in rows
    ]
    return "\n".join([*comments, ",".join(header), *cells, *trailers]) + "\n"


class TestCsvContract:
    SPECIALS = [-0.0, 0.0, 5e-324, 1e-300, 1e300, math.inf, -math.inf, math.nan, 0.1, -1 / 3]

    @pytest.mark.parametrize(
        "header, rows",
        [
            # spectrum: int level, then numpy and Python floats
            (("n", "e_squared", "e", "delta_eig"),
             [(n, np.float64(n * n + 0.1), math.sqrt(n + 0.7), float(n) / 3) for n in range(9)]),
            # hierarchy: int step, float level, float factor
            (("step", "k_level", "factor"),
             [(j, 3.7 + 15 - j, math.sqrt((j + 1) * (j + 1 + 2.0 * 3.7))) for j in range(16)]),
            # eigenfunction: float pairs, including the values a wall or an underflow gives
            (("x", "value"), list(zip(SPECIALS, reversed(SPECIALS)))),
            (("x",), [(v,) for v in SPECIALS]),
        ],
    )
    def test_matches_per_value_definition(self, header, rows):
        comments, trailers = ["# params: a=1"], ["# prefactor=1", "# final_norm=1"]
        assert "".join(cli._csv(header, rows, comments, trailers)) == _csv_per_value(
            header, rows, comments, trailers
        )
        assert "".join(cli._csv(header, rows)) == _csv_per_value(header, rows)

    def test_one_chunk_plus_one_row(self):
        # the body is formatted _CSV_CHUNK rows at a time; the row after a
        # full chunk starts the next piece, with the same bytes as one text
        rng = np.random.default_rng(5)
        rows = [(float(a), float(b)) for a, b in rng.standard_normal((cli._CSV_CHUNK + 1, 2))]
        rows[-1] = (-0.0, math.nan)
        pieces = list(cli._csv(("x", "value"), iter(rows), ["# c"], ["# t"]))
        assert len(pieces) == 4
        assert "".join(pieces) == _csv_per_value(("x", "value"), rows, ["# c"], ["# t"])

    def test_eigenfunction_one_chunk_plus_one_sample(self, capsys, tmp_path):
        samples = cli._CSV_CHUNK + 1
        out = tmp_path / "f.csv"
        code, _, err = run_cli(capsys, "eigenfunction", "--k", "2", "--n", "3",
                               "--samples", str(samples), "--output", str(out))
        assert (code, err) == (0, "")
        p = ModelParams(1.0, 1.0, 2.0)
        x = np.linspace(-p.half_width, p.half_width, samples)
        rows = list(zip(x.tolist(), evaluate(build_eigenfunction(p, 3), x).tolist()))
        comments = [cli._params_comment(p), "# n=3"]
        assert out.read_text() == _csv_per_value(("x", "value"), rows, comments)

    def test_header_only_body(self):
        assert "".join(cli._csv(("a", "b"), [], ["# c"], ["# t"])) == "# c\na,b\n# t\n"
        assert "".join(cli._csv(("a", "b"), [])) == _csv_per_value(("a", "b"), [])

    def test_header_only_hierarchy(self, capsys):
        code, out, err = run_cli(capsys, "hierarchy", "--k", "2", "--n", "0")
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert lines[1:3] == ["# n=0", "step,k_level,factor"]
        assert lines[3] == "# prefactor=1"
        assert lines[4].startswith("# final_norm=") and len(lines) == 5
        assert out.endswith("\n") and "\n\n" not in out

    @pytest.mark.parametrize("value", SPECIALS)
    def test_fmt_matches_format(self, value):
        assert cli._fmt(value) == format(value, ".17g")
        assert cli._fmt(np.float64(value)) == format(value, ".17g")


def _readme_commands():
    """The susy-pt lines of the README's "Command line" block, without
    their trailing comments."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [ln.split("#", 1)[0].strip() for ln in block.splitlines() if ln.startswith("susy-pt ")]


class TestReadmeCommands:
    def test_block_found(self):
        assert len(_readme_commands()) >= 5

    @pytest.mark.parametrize("line", _readme_commands())
    def test_parses(self, line):
        # parse only: a renamed or removed flag fails here, nothing runs
        try:
            cli._parser().parse_args(shlex.split(line)[1:])
        except SystemExit as exc:
            pytest.fail(f"README command does not parse: {line!r} (exit {exc.code})")
