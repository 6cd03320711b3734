"""The example scripts run end to end at tiny arguments, in process."""

import runpy
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(monkeypatch, capsys, name, *argv):
    monkeypatch.setattr(sys, "argv", [name, *argv])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    return capsys.readouterr().out.splitlines()


def test_potts_sweep(monkeypatch, capsys):
    lines = run_script(monkeypatch, capsys, "potts_sweep.py", "--p", "1,2", "--sites", "2,3", "--x", "2")
    assert lines[0] == "p,N,x,closed,transfer,brute,integral,agree"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 4
    assert all(row[-1] == "True" for row in rows)


def test_heat_convergence(monkeypatch, capsys):
    lines = run_script(monkeypatch, capsys, "heat_convergence.py", "--p", "1", "--h", "0,1", "--doublings", "3")
    assert lines[0] == "p=1 h=[0.0, 1.0] t=1.0"
    assert lines[2].split() == ["steps", "euler", "error", "ratio", "expm", "error"]
    assert [line.split()[0] for line in lines[3:]] == ["16", "32", "64"]
