"""Byte-identity gate: CLI stdout on a fixed command set must equal the
outputs stored under tests/golden/.  A refactor that changes any printed
digit fails here; regenerate a golden file only for an intended change
of output, and say so in CHANGES.md."""

from pathlib import Path

import pytest

from susy_pt import cli

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "spectrum_k3.7_eps0.5.csv": ("spectrum", "--k", "3.7", "--epsilon", "0.5"),
    "spectrum_k3.7_eps0.5.json": ("spectrum", "--k", "3.7", "--epsilon", "0.5", "--format", "json"),
    "eigenfunction_k2_n3.csv": ("eigenfunction", "--k", "2", "--n", "3", "--samples", "41"),
    "eigenfunction_k2_n3.json": (
        "eigenfunction", "--k", "2", "--n", "3", "--samples", "41", "--format", "json",
    ),
    "eigenfunction_k300_n9_s2001.csv": (
        "eigenfunction", "--k", "300", "--n", "9", "--epsilon", "2", "--samples", "2001",
    ),
    "hierarchy_k2_n0.csv": ("hierarchy", "--k", "2", "--n", "0"),  # header-only body
    "hierarchy_k2_n4.json": ("hierarchy", "--k", "2", "--n", "4", "--format", "json"),
    "hierarchy_k3.7_n16.csv": ("hierarchy", "--k", "3.7", "--n", "16"),
    "hierarchy_k1.312_n24.json": ("hierarchy", "--k", "1.312", "--n", "24", "--format", "json"),
    "verify.txt": ("verify", "--format", "text"),
    "verify_default.json": ("verify", "--format", "json"),
    "verify_k3.7_eps2.json": ("verify", "--k", "3.7", "--epsilon", "2", "--format", "json"),
    "verify_richardson.json": ("verify", "--richardson", "--format", "json"),
    "verify_k1.01.json": ("verify", "--k", "1.01", "--format", "json"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(name, capsys):
    assert cli.main(list(CASES[name])) == 0
    assert capsys.readouterr().out == (GOLDEN / name).read_text()
