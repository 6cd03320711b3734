"""Command-line interface: dispatch, formats, exit codes, determinism."""

import hashlib
import json
import warnings
from pathlib import Path

import pytest

from pga.cli import main
from pga.qarith import make_context
from pga.single_mode import build_rep


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_potts_all_exact(capsys):
    code, out = run(
        capsys, "potts", "--p", "2", "--sites", "3", "--x", "2", "--method", "all", "--exact"
    )
    assert code == 0
    doc = json.loads(out)
    results = doc["results"]
    assert results["closed"] == results["transfer"] == results["brute"] == results["integral"] == "66"
    assert results["agreement"] is True
    assert doc["params"]["p"] == 2


def test_potts_float_mode(capsys):
    code, out = run(capsys, "potts", "--p", "1", "--sites", "2", "--x", "2.0")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["closed"] == pytest.approx(10.0)
    assert "integral" not in doc["results"]


def test_potts_csv(capsys):
    code, out = run(
        capsys, "potts", "--p", "1", "--sites", "2", "--x", "2", "--exact",
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p,N,x,method,value_re,value_im"
    assert lines[1].startswith("1,2,2,closed,10.0")
    assert len(lines) == 5


def test_potts_integral_needs_exact(capsys):
    code = main(["potts", "--p", "1", "--sites", "2", "--x", "2", "--method", "integral"])
    capsys.readouterr()
    assert code == 2


def test_potts_integral_long_chain(capsys):
    # 2**40 spin configurations, but only 39 * 4 coefficient entries
    code, out = run(
        capsys, "potts", "--p", "1", "--sites", "40", "--x", "2", "--exact", "--method", "integral"
    )
    assert code == 0
    assert '"integral": "12157665459056928802"' in out


@pytest.mark.parametrize(
    "argv",
    [
        ["--sites", "40", "--exact"],
        ["--sites", "24"],
    ],
    ids=["exact-40", "float-24"],
)
def test_potts_all_omits_brute_over_its_cap(capsys, argv):
    # 2**40 and 2**24 spin configurations exceed the brute-force cap of 10**7
    code, out = run(capsys, "potts", "--p", "1", "--x", "2", *argv)
    assert code == 0
    results = json.loads(out)["results"]
    assert "brute" not in results
    assert results["agreement"] is True
    if "--exact" in argv:
        assert results["closed"] == results["transfer"] == results["integral"]
        assert results["closed"] == "12157665459056928802"
    else:
        assert list(results) == ["closed", "transfer", "agreement"]
    assert main(["potts", "--p", "1", "--x", "2", "--method", "brute", *argv]) == 2
    capsys.readouterr()


def test_potts_one_site_exit_2(capsys):
    code = main(["potts", "--p", "1", "--sites", "1", "--x", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: need at least two sites\n"


def test_potts_nonpositive_exact_x_exit_2(capsys):
    code = main(["potts", "--p", "2", "--sites", "3", "--x", "-2", "--exact", "--method", "closed"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: Boltzmann factor must be positive\n"


@pytest.mark.parametrize(
    "h, time, flag",
    [("nan,1", "1", "--h"), ("1,1", "inf", "--time"), ("1,inf", "1", "--h")],
    ids=["h-nan", "time-inf", "h-inf"],
)
def test_heat_nan_input_exit_2(capsys, h, time, flag):
    # rejected before any numpy call, so no RuntimeWarning reaches stderr
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["heat", "--p", "1", "--h", h, "--time", time, "--steps", "4"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: {flag} ")
    assert captured.err.count("\n") == 1


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as err:
        main(["potts", "--p", "0", "--sites", "3", "--x", "2"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["potts", "--p", "2", "--sites", "3", "--x", "2", "--method", "bogus"])
    assert err.value.code == 2


def test_verify_passes(capsys):
    code, out = run(capsys, "verify", "--p", "1", "--modes", "1")
    assert code == 0
    doc = json.loads(out)
    assert all(c["passed"] for c in doc["checks"])


def test_verify_cap_exceeded(capsys):
    code = main(["verify", "--p", "2", "--modes", "4"])
    capsys.readouterr()
    assert code == 2


def test_repr_dump_matches_library(capsys):
    code, out = run(capsys, "repr", "--p", "2", "--dump", "theta,g")
    assert code == 0
    doc = json.loads(out)
    rep = build_rep(make_context(2))
    assert doc["results"]["theta"] == rep.theta.to_json()
    assert doc["results"]["g"] == rep.g.to_json()
    assert "partial" not in doc["results"]


def test_repr_unknown_matrix(capsys):
    code = main(["repr", "--p", "2", "--dump", "nonsense"])
    capsys.readouterr()
    assert code == 2


def test_heat_run(capsys):
    code, out = run(
        capsys, "heat", "--p", "2", "--h", "0,1,1", "--time", "1", "--steps", "16",
        "--convergence",
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["results"]["exact"]) == 3
    conv = doc["results"]["convergence"]
    assert [row["steps"] for row in conv] == [16, 32, 64, 128]
    assert all(c["passed"] for c in doc["checks"])


def test_qgroup_run(capsys):
    code, out = run(capsys, "qgroup", "--p", "2", "--alpha", "1/2", "--beta", "2", "--sl")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["qdet"]["coeffs"][0] == "1/1"
    assert all(c["passed"] for c in doc["checks"])


def test_byte_identical_reruns(capsys):
    for argv in (
        ["potts", "--p", "2", "--sites", "3", "--x", "5/2", "--exact"],
        ["verify", "--p", "2", "--modes", "1", "--seed", "3"],
        ["heat", "--p", "1", "--h", "1,0", "--time", "0.5", "--steps", "8"],
    ):
        _, first = run(capsys, *argv)
        _, second = run(capsys, *argv)
        assert first == second


GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "cli_golden.json"

# (README command line, its key in the golden file); verify's --seed defaults to 0
README_COMMANDS = [
    ("verify --p 2 --modes 2", "verify --p 2 --modes 2 --seed 0"),
    ("potts --p 2 --sites 3 --x 2 --method all --exact", None),
    ("potts --p 1 --sites 4 --x 5/2 --exact --format csv", None),
    ("repr --p 2 --dump theta,partial,g", None),
    ("heat --p 2 --h 0,1,1 --time 1 --steps 16 --convergence", None),
    ("qgroup --p 2 --alpha 1/2 --beta 2 --sl", None),
]


@pytest.mark.parametrize("command,key", README_COMMANDS, ids=[c for c, _ in README_COMMANDS])
def test_readme_commands_match_golden_output(capsys, command, key):
    golden = json.loads(GOLDEN.read_text())
    code, out = run(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == golden[key or command]


GOLDEN_DIGESTS = json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("argv", sorted(GOLDEN_DIGESTS))
def test_every_golden_argv_matches(capsys, argv):
    code, out = run(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_DIGESTS[argv]
