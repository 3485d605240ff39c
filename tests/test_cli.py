"""CLI round trips: model files, every subcommand, exit codes, CSV format."""

import csv
import math
import os
import subprocess
import sys
from pathlib import Path

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10; pytest depends on tomli there
    import tomli as tomllib

import pytest

import walkfluct
from walkfluct.cli import emit_csv, load_model, random_atomic_measure, run
from walkfluct.errors import ParseError
from walkfluct.fluct import busy_period_rational, walk_functionals
from walkfluct.model import (
    Deterministic, Erlang, Exponential, Hyperexponential, Uniform, build_product_model,
)

import numpy as np

MM1_YAML = """\
schema_version: 1
kind: product
b: {family: exponential, rate: 2.0}
a: {family: exponential, rate: 1.0}
"""

THRESHOLD_YAML = """\
schema_version: 1
kind: threshold
f1: {family: exponential, rate: 3.0}
f2: {family: exponential, rate: 1.2}
a: {family: exponential, rate: 1.0}
l: 1.0
"""

MARKOV_YAML = """\
schema_version: 1
kind: markov_modulated
alpha: [0.6, 0.4]
transitions: [[0.3, 0.2], [0.1, 0.4]]
absorb: [0.5, 0.5]
f: {family: exponential, rate: 5.0}
g: {family: exponential, rate: 2.0}
"""


@pytest.fixture()
def mm1_file(tmp_path):
    p = tmp_path / "mm1.yaml"
    p.write_text(MM1_YAML)
    return str(p)


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return rows


# --- model files -------------------------------------------------------------


def _same_lst(loaded, builtin):
    probe = (0.3 + 0.2j, 0.5 - 0.1j)
    return complex(loaded.lst(*probe)) == complex(builtin.lst(*probe))


def test_load_model_product(mm1_file, models):
    m = load_model(mm1_file)
    assert _same_lst(m, models["product_mm1"])
    assert m.label == "mm1"  # defaults to the file stem
    assert m.mean_b == pytest.approx(0.5)
    assert m.mean_a == pytest.approx(1.0)
    assert m.rational is not None


def test_load_model_label_field(tmp_path):
    p = tmp_path / "anything.yaml"
    p.write_text(MM1_YAML + 'label: custom\n')
    assert load_model(str(p)).label == "custom"


@pytest.mark.parametrize("text,name", [
    (THRESHOLD_YAML, "threshold_exp"),
    (MARKOV_YAML, "markov_2state"),
])
def test_load_model_other_kinds(tmp_path, models, text, name):
    p = tmp_path / "m.yaml"
    p.write_text(text)
    m = load_model(str(p))
    assert _same_lst(m, models[name])
    assert m.rational is not None


def test_loaded_threshold_matches_builtin(tmp_path, models):
    p = tmp_path / "t.yaml"
    p.write_text(THRESHOLD_YAML)
    wf_file = walk_functionals(load_model(str(p)))
    wf_builtin = walk_functionals(models["threshold_exp"])
    a = busy_period_rational(wf_file, 0.5, 1.0).value
    b = busy_period_rational(wf_builtin, 0.5, 1.0).value
    assert abs(a - b) < 1e-12


@pytest.mark.parametrize("text", [
    "kind: product\n",                                     # no schema_version
    "schema_version: 2\nkind: product\n",                  # wrong version
    MM1_YAML.replace("kind: product", "kind: levy"),       # unknown kind
    MM1_YAML.replace("exponential", "zeta"),               # unknown family
    MM1_YAML.replace(", rate: 2.0", ""),                   # missing parameter
    "- just\n- a\n- list\n",                               # not a mapping
    "b: {family: [unclosed\n",                             # YAML syntax error
    MM1_YAML.replace("rate: 2.0", "rate: -1.0"),           # bad parameter value
])
def test_load_model_parse_errors(tmp_path, text):
    p = tmp_path / "bad.yaml"
    p.write_text(text)
    with pytest.raises(ParseError):
        load_model(str(p))


@pytest.mark.parametrize("node,law", [
    ("{family: exponential, rate: 2.5}", Exponential(2.5)),
    ("{family: erlang, shape: 3, rate: 6.0}", Erlang(3, 6.0)),
    ("{family: hyperexponential, probs: [0.3, 0.7], rates: [1.0, 4.0]}",
     Hyperexponential((0.3, 0.7), (1.0, 4.0))),
    ("{family: deterministic, value: 0.4}", Deterministic(0.4)),
    ("{family: uniform, lo: 0.1, hi: 0.9}", Uniform(0.1, 0.9)),
], ids=["exponential", "erlang", "hyperexponential", "deterministic", "uniform"])
def test_load_model_every_family(tmp_path, node, law):
    p = tmp_path / "law.yaml"
    p.write_text(f"schema_version: 1\nkind: product\nb: {node}\n"
                 "a: {family: exponential, rate: 1.0}\n")
    loaded = load_model(str(p))
    direct = build_product_model(law, Exponential(1.0))
    for s in (0.7, 0.3 + 1.2j):
        assert loaded.lst(s, 0.0) == direct.lst(s, 0.0)
    assert loaded.mean_b == direct.mean_b


def test_load_model_missing_file(tmp_path):
    with pytest.raises(ParseError, match="cannot read"):
        load_model(str(tmp_path / "absent.yaml"))


# --- eval --------------------------------------------------------------------


def test_eval_busy_rational(mm1_file, tmp_path, mm1_refs):
    out = tmp_path / "o.csv"
    rc = run(["eval", "busy", "--model", mm1_file, "--engine", "rational",
              "--z", "0.5", "--s", "0.5", "--out", str(out)])
    assert rc == 0
    rows = _read_csv(out)
    assert len(rows) == 1
    assert rows[0]["method"] == "rational"
    val = complex(float(rows[0]["value_re"]), float(rows[0]["value_im"]))
    assert abs(val - mm1_refs.busy(0.5, 0.5)) < 1e-10


# steps ignores s, so it runs at one s only
@pytest.mark.parametrize("functional, s", [
    ("busy", "0.5"), ("busy", "1e-8"), ("idle", "0.5"), ("idle", "1e-8"),
    ("steps", "0.5"), ("max", "0.5"), ("max", "1e-8"),
])
def test_eval_contour(mm1_file, tmp_path, mm1_refs, functional, s):
    out = tmp_path / "o.csv"
    rc = run(["eval", functional, "--model", mm1_file,
              "--z", "0.5", "--s", s, "--out", str(out)])
    assert rc == 0
    row = _read_csv(out)[0]
    assert row["method"] == "contour"
    val = complex(float(row["value_re"]), float(row["value_im"]))
    want = {"busy": lambda: mm1_refs.busy(0.5, float(s)),
            "idle": lambda: mm1_refs.idle(0.5, float(s)),
            "steps": lambda: mm1_refs.steps(0.5),
            "max": lambda: mm1_refs.transient_max(0.5, float(s))}[functional]()
    assert abs(val - want) < max(5.0 * float(row["abs_err"]), 1e-6)


def test_eval_busy_montecarlo(mm1_file, tmp_path, mm1_refs):
    out = tmp_path / "o.csv"
    rc = run(["eval", "busy", "--model", mm1_file, "--engine", "mc",
              "--z", "0.5", "--s", "0.5", "--paths", "40000", "--seed", "7",
              "--out", str(out)])
    assert rc == 0
    row = _read_csv(out)[0]
    assert row["method"] == "montecarlo"
    val = complex(float(row["value_re"]), float(row["value_im"]))
    assert abs(val - mm1_refs.busy(0.5, 0.5)) < max(
        5.0 * float(row["abs_err"]), 2e-3)


def test_eval_busy_series(mm1_file, tmp_path, mm1_refs):
    out = tmp_path / "o.csv"
    rc = run(["eval", "busy", "--model", mm1_file, "--engine", "series",
              "--z", "0.5", "--s", "0.5", "--paths", "4000", "--cap", "40",
              "--seed", "13", "--out", str(out)])
    assert rc == 0
    row = _read_csv(out)[0]
    assert row["method"] == "series"
    val = complex(float(row["value_re"]), float(row["value_im"]))
    assert abs(val - mm1_refs.busy(0.5, 0.5)) < max(
        4.0 * float(row["abs_err"]), 5e-3)


def test_eval_default_grid_steps(mm1_file, tmp_path, mm1_refs):
    out = tmp_path / "o.csv"
    rc = run(["eval", "steps", "--model", mm1_file, "--engine", "rational",
              "--out", str(out)])
    assert rc == 0
    rows = _read_csv(out)
    assert [float(r["z_re"]) for r in rows] == [0.3, 0.5, 0.7]
    for r in rows:
        assert abs(float(r["value_re"]) - mm1_refs.steps(float(r["z_re"]))) < 1e-10


def test_eval_exit_codes(mm1_file, tmp_path):
    base = ["eval", "busy", "--model", mm1_file, "--s", "1"]
    assert run(base + ["--engine", "rational", "--z", "1.2"]) == 1  # |z| > 1
    assert run(base + ["--engine", "contour", "--z", "1.0"]) == 1   # closed disk
    assert run(["eval", "idle", "--model", mm1_file, "--engine", "rational",
                "--z", "0.5", "--s", "1"]) == 1                     # no idle kernel route
    assert run(["eval", "max", "--model", mm1_file, "--engine", "mc",
                "--z", "0.5", "--s", "1"]) == 1                     # no max sampler route
    assert run(base + ["--engine", "contour", "--z", "nonsense"]) == 1
    assert run(["eval", "busy", "--model", str(tmp_path / "none.yaml"),
                "--z", "0.5", "--s", "1"]) == 1


def test_cli_usage_errors_exit_two():
    assert run([]) == 2               # argparse: missing subcommand
    assert run(["eval"]) == 2         # argparse: missing functional and model


# --- roots -------------------------------------------------------------------


def test_roots_command(mm1_file, tmp_path, mm1_refs):
    out = tmp_path / "r.csv"
    rc = run(["roots", "--model", mm1_file, "--z", "0.5", "--s", "0.5",
              "--out", str(out)])
    assert rc == 0
    rows = _read_csv(out)
    assert len(rows) == 1
    assert int(rows[0]["count"]) == 1
    root = complex(float(rows[0]["root_re"]), float(rows[0]["root_im"]))
    assert abs(root - mm1_refs.xi1(0.5, 0.5)) < 1e-9
    assert float(rows[0]["residual"]) < 1e-8


def test_roots_unstable_unit_corner_is_stability_error(tmp_path, capsys):
    # z = 1 at Re s = 0 leans on the drift condition; roots applies the same
    # rule as the engines and reports the failed condition, not an API keyword
    p = tmp_path / "unstable.yaml"
    p.write_text(MM1_YAML.replace("rate: 2.0", "rate: 0.5"))
    assert run(["roots", "--model", str(p), "--z", "1", "--s", "0"]) == 1
    assert "z = 1 at Re s = 0 requires E B < E A" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["roots", "--z=-1", "--s", "0"],
    ["eval", "max", "--engine", "rational", "--z=-1", "--s", "1"],
])
@pytest.mark.parametrize("rate", ["2.0", "0.5"])
def test_unit_circle_away_from_one_is_not_covered(tmp_path, capsys, argv, rate):
    # z = -1 at Re s = 0 is outside the covered regime whatever the drift: the
    # message says so, without an API keyword or the z = 1 drift condition
    p = tmp_path / "walk.yaml"
    p.write_text(MM1_YAML.replace("rate: 2.0", f"rate: {rate}"))
    assert run(argv + ["--model", str(p)]) == 1
    err = capsys.readouterr().err
    assert "not covered" in err
    assert "stable_drift" not in err and "E B < E A" not in err


# --- simulate ----------------------------------------------------------------


def test_simulate_first_descent(mm1_file, tmp_path, mm1_refs):
    out = tmp_path / "s.csv"
    rc = run(["simulate", "first-descent", "--model", mm1_file,
              "--z", "0.5", "--s1", "0.5", "--paths", "40000", "--seed", "7",
              "--out", str(out)])
    assert rc == 0
    row = _read_csv(out)[0]
    assert row["functional"] == "first-descent"
    noise = 4.0 * float(row["std_err"]) + float(row["bias_bound"])
    assert abs(float(row["mean_re"]) - mm1_refs.busy(0.5, 0.5)) < noise
    assert int(row["paths"]) == 40000


def test_simulate_max_n(mm1_file, tmp_path):
    out = tmp_path / "s.csv"
    rc = run(["simulate", "max-n", "--model", mm1_file,
              "--n", "50", "--s1", "1.0", "--paths", "20000", "--seed", "17",
              "--out", str(out)])
    assert rc == 0
    row = _read_csv(out)[0]
    assert row["functional"] == "max-n"
    assert int(row["cap"]) == 50  # cap column carries the horizon
    assert 0.0 < float(row["mean_re"]) <= 1.0


def test_simulate_is_deterministic(mm1_file, tmp_path):
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        rc = run(["simulate", "first-descent", "--model", mm1_file,
                  "--z", "0.5", "--paths", "5000", "--seed", "42",
                  "--out", str(out)])
        assert rc == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


# --- compare and invert ------------------------------------------------------


def test_compare_single_point(mm1_file, tmp_path):
    out = tmp_path / "c.csv"
    rc = run(["compare", "--model", mm1_file, "--z", "0.5", "--s", "1.0",
              "--paths", "20000", "--seed", "5", "--out", str(out)])
    assert rc == 0
    row = _read_csv(out)[0]
    assert row["ok"] == "1"
    assert float(row["engine_gap"]) < 1e-6
    assert float(row["mc_gap_over_se"]) < 4.0


def test_compare_without_rational_kernel(tmp_path):
    # a Deterministic B law has no kernel: the rational columns read nan and
    # ok is the contour-vs-MC check alone
    model = tmp_path / "det_uniform.yaml"
    model.write_text("schema_version: 1\nkind: product\n"
                     "b: {family: deterministic, value: 0.7}\n"
                     "a: {family: uniform, lo: 0.2, hi: 2.0}\n")
    out = tmp_path / "c.csv"
    rc = run(["compare", "--model", str(model), "--z", "0.3", "--s", "0.5",
              "--paths", "4000", "--seed", "0", "--out", str(out)])
    assert rc == 0
    row = _read_csv(out)[0]
    for col in ("rational_re", "rational_im", "engine_gap"):
        assert math.isnan(float(row[col])), col
    assert row["ok"] == "1"
    assert float(row["mc_gap_over_se"]) < 4.0


def test_invert_matches_busy_density(mm1_file, tmp_path, mm1_refs):
    out = tmp_path / "i.csv"
    rc = run(["invert", "--model", mm1_file, "--z", "1",
              "--t", "0.5,1.0", "--out", str(out)])
    assert rc == 0
    from test_fluct import _bessel_i1
    lam, mu = mm1_refs.lam, mm1_refs.mu
    for row in _read_csv(out):
        t = float(row["t"])
        density = (math.exp(-(lam + mu) * t) * _bessel_i1(2 * t * math.sqrt(lam * mu))
                   / (t * math.sqrt(lam / mu)))
        assert abs(float(row["value"]) - density) < 1e-5


def test_invert_empty_grid(mm1_file):
    assert run(["invert", "--model", mm1_file, "--t", ",,"]) == 1


# --- verify-hewitt -----------------------------------------------------------


def test_verify_hewitt_command(tmp_path):
    out = tmp_path / "h.csv"
    rc = run(["verify-hewitt", "--count", "2", "--seed", "3", "--T", "400",
              "--out", str(out)])
    assert rc == 0
    rows = _read_csv(out)
    assert len(rows) == 8  # 2 measures, 4 truncation heights each
    for idx in ("0", "1"):
        ladder = [float(r["gap"]) for r in rows if r["measure"] == idx]
        assert ladder[-1] < 1e-3


def test_verify_hewitt_flags_bad_truncation(tmp_path):
    # T = 24 leaves a visible tail, the command must say so
    out = tmp_path / "h.csv"
    rc = run(["verify-hewitt", "--count", "1", "--seed", "1", "--T", "24",
              "--out", str(out)])
    assert rc == 2
    # whereas T = 8 does not even pass the resolution guard at its lowest rung
    assert run(["verify-hewitt", "--count", "1", "--seed", "1", "--T", "8"]) == 1


def test_verify_hewitt_has_no_tol(capsys):
    # verify-hewitt compares plain truncations and has no tolerance to read
    assert run(["verify-hewitt", "--count", "1", "--tol", "1e-3"]) == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["roots", "--z", "0.5", "--s", "0.5", "--T", "5"],
    ["roots", "--z", "0.5", "--s", "0.5", "--seed", "1"],
    ["invert", "--z", "1", "--t", "1.0", "--seed", "1"],
    ["simulate", "max-n", "--n", "5", "--tol", "1e-3"],
    ["eval", "busy", "--grid", "default"],
    ["verify-hewitt", "--count", "1"],
])
def test_unread_options_rejected(mm1_file, argv, capsys):
    # each command accepts only the options it reads
    assert run(argv + ["--model", mm1_file]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_random_atomic_measure_is_normalized():
    for seed in range(12):
        rng = np.random.Generator(np.random.Philox(key=seed))
        H = random_atomic_measure(rng)
        assert H.atoms
        assert H.total_variation() == pytest.approx(1.0)


# --- CSV and plumbing --------------------------------------------------------


def test_emit_csv_formats(tmp_path):
    out = tmp_path / "f.csv"
    emit_csv(["flag", "x", "n"], [[True, 0.1, 2], [False, 1.0, 3]], str(out))
    text = out.read_text()
    assert text.splitlines() == ["flag,x,n",
                                 "1,0.10000000000000001,2",
                                 "0,1,3"]
    with pytest.raises(TypeError):
        emit_csv(["c"], [[1 + 2j]], str(out))


def test_emit_csv_stdout(capsys):
    emit_csv(["a"], [[1]], None)
    assert capsys.readouterr().out == "a\n1\n"


def test_thread_pool_gives_same_csv(mm1_file, tmp_path, monkeypatch):
    args = ["eval", "busy", "--model", mm1_file, "--engine", "rational"]
    single, pooled = tmp_path / "one.csv", tmp_path / "many.csv"
    monkeypatch.setenv("WALKFLUCT_THREADS", "1")
    assert run(args + ["--out", str(single)]) == 0
    monkeypatch.setenv("WALKFLUCT_THREADS", "4")
    assert run(args + ["--out", str(pooled)]) == 0
    assert single.read_bytes() == pooled.read_bytes()


def test_unwritable_output_is_io_failure(mm1_file, tmp_path):
    dest = tmp_path / "missing_dir" / "o.csv"
    rc = run(["eval", "busy", "--model", mm1_file, "--engine", "rational",
              "--z", "0.5", "--s", "1", "--out", str(dest)])
    assert rc == 2


def _console_script_target():
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["walkfluct"]
    module, _, function = target.partition(":")
    return module, function


def test_console_script_smoke(mm1_file, tmp_path):
    # The [project.scripts] target and `python -m walkfluct`, each started as
    # its own process on the package this test imported: no install needed,
    # and no other installed walkfluct is picked up.
    module, function = _console_script_target()
    src = str(Path(walkfluct.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))

    def walkfluct_cli(launcher, model, out):
        return subprocess.run(
            [sys.executable, *launcher, "eval", "busy", "--model", model,
             "--engine", "rational", "--z", "0.5", "--s", "1",
             "--out", str(out)],
            capture_output=True, text=True, cwd=tmp_path, env=env)

    out = tmp_path / "o.csv"
    proc = walkfluct_cli(
        ["-c", f"from {module} import {function}; {function}()"], mm1_file, out)
    assert proc.returncode == 0, proc.stderr
    assert _read_csv(out)[0]["method"] == "rational"

    via_m = tmp_path / "m.csv"
    proc = walkfluct_cli(["-m", "walkfluct"], mm1_file, via_m)
    assert proc.returncode == 0, proc.stderr
    assert via_m.read_bytes() == out.read_bytes()
    proc = walkfluct_cli(["-m", "walkfluct"], str(tmp_path / "absent.yaml"),
                         tmp_path / "absent.csv")
    assert proc.returncode == 1, proc.stderr
