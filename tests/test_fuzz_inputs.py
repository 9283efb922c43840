"""Seeded mutation test of every command-line input.

Each case mutates one input file (a system JSON, a cost JSON, a trajectory
CSV or a benchmark config) with a test-local byte mutator, picks values for
the numeric options, and runs one subcommand in-process through `cli.main`.
Whatever the input, the command must end in one of the documented ways: exit
code 0, 1, 2 or 3, with 1 only for ParseError and OSError, a message on
stderr that starts with "error:" for every non-zero code, no traceback and
no warning. argparse's own rejection of an option value (SystemExit 2, its
usage text on stderr) also counts as a documented end. A file written by a
command that exits 0 must read back: a trajectory CSV through load_bundle, a
report or estimate JSON through a JSON parser that refuses NaN and Infinity.
"""

import builtins
import json
import re
import sys
import warnings

import numpy as np
import pytest

import ioclqr as io
from ioclqr import cli
from ioclqr.core_model import KINDS

TOKENS = [b"nan", b"1e999", b"1e200", b"true", b'"5"', b"\xff", b"[]", b"null",
          b"-1", b"0", b"1e-300", b"-0.0", b"", b","]
NUMBER = re.compile(rb"-?[0-9][0-9.eE+-]*")

OPTIONS = {
    "--phi": ["5", "0.5", "0", "-1", "nan", "inf", "1e300", "1e-300", "1e150"],
    "--horizon": ["8", "0", "1", "2", "3", "4", "-1"],
    "--episodes": ["3", "0", "1", "-2", "7"],
    "--snr-x": ["none", "15", "0", "-300", "400", "1e308", "-1e308", "nan"],
    "--snr-u": ["none", "20", "0", "-300", "400", "1e308", "-1e308", "inf"],
    "--x0": ["1,2", "-1,2", "1", "1,2,3", "nan,1", "1e200,1", "1e-300,0", "0,0", ""],
    "--seed": ["0", "7", "-1", "4294967296", "99999999999999999999"],
}

SYSTEM = {"n": 2, "m": 1, "A": [[0.9, 0.2], [-0.1, 0.8]], "B": [[0.0], [1.0]]}
COST = {"n": 2, "phi": 5.0, "Q": [[1.0, 0.2], [0.2, 0.5]]}
BENCH = {"n_trials": 1, "N": 6, "M_grid": [2], "snr_db_x": 15.0, "snr_db_u": 20.0,
         "phi": 5.0, "dt": 0.1, "master_seed": 0}

SEEDS = range(360)
EXAMPLE_SEEDS = range(300, 360)  # identify and estimate --mode exact on the worked example
RENAME_SEEDS = range(360, 420)  # one JSON key or the bundle's kind word renamed
KNOWN = {"n", "m", "A", "B", "phi", "Q", "psd_tol", *BENCH, "system", "environment", *KINDS}


def mutate(data, rng):
    """One to three seeded edits of data: mostly a number replaced by a token
    (the file still parses), else a token inserted, a short span deleted or
    one byte overwritten."""
    data = bytearray(data)
    for _ in range(rng.integers(1, 4)):
        pos = int(rng.integers(len(data) + 1))
        token = TOKENS[rng.integers(len(TOKENS))]
        op = rng.choice(4, p=[0.55, 0.15, 0.15, 0.15])
        match = NUMBER.search(bytes(data), pos) or NUMBER.search(bytes(data))
        if op == 0 and match:
            data[match.start():match.end()] = token
        elif op == 1:
            data[pos:pos] = token
        elif op == 2:
            del data[pos:pos + int(rng.integers(1, 6))]
        else:
            data[pos:pos + 1] = bytes([rng.integers(256)])
    return bytes(data)


def rename(data, rng):
    """data with one JSON key, or a bundle CSV's kind word, turned into a
    word no loader knows: a letter dropped or doubled, the case swapped or
    an x appended."""
    words = list(re.finditer(rb'"(\w+)":|^# kind=(\w+)', data))
    match = words[rng.integers(len(words))]
    start, end = match.span(1) if match.group(1) else match.span(2)
    word = data[start:end].decode()
    i = int(rng.integers(len(word)))
    new = [word[:i] + word[i + 1:], word[:i] + word[i] + word[i:], word.swapcase(),
           word + "x"][rng.integers(4)]
    assert new not in KNOWN, (word, new)
    return data[:start] + new.encode() + data[end:]


@pytest.fixture(scope="module")
def clean_inputs(tmp_path_factory, example_instance):
    """Valid files for every input: system, cost, an exact bundle and a
    noisy one (N=8, M=3) and a benchmark config, and the worked example's
    system and rank-deficient exact bundle (N=15, M=1)."""
    d = tmp_path_factory.mktemp("clean")
    sys_ = io.LtiSystem(SYSTEM["A"], SYSTEM["B"])
    exact = io.generate_bundle(sys_, io.CostMatrix(COST["Q"]), N=8, M=3, seed=0)
    paths = {"system": d / "sys.json", "cost": d / "cost.json", "exact": d / "exact.csv",
             "noisy": d / "noisy.csv", "bench": d / "bench.json",
             "example_system": d / "example_sys.json", "example": d / "example.csv"}
    paths["system"].write_text(json.dumps(SYSTEM))
    paths["cost"].write_text(json.dumps(COST))
    paths["bench"].write_text(json.dumps(BENCH))
    io.save_bundle(exact, paths["exact"])
    io.save_bundle(io.add_noise(exact, 20.0, 25.0, seed=1), paths["noisy"])
    io.save_system(example_instance["sys"], paths["example_system"])
    io.save_bundle(example_instance["bundle"], paths["example"])
    return {k: p.read_bytes() for k, p in paths.items()}


def _case(seed, clean, tmp):
    """The argv of case `seed`, after writing its input files, at most one of
    them mutated."""
    rng = np.random.default_rng([17, seed])
    if seed in EXAMPLE_SEEDS:  # reaches prop2_certificate and the kernel recovery
        command, inputs = ["identify", "estimate"][seed % 2], ["example_system", "example"]
    else:
        command = ["forward", "generate", "identify", "estimate", "bench"][seed % 5]
        inputs = {"forward": ["system", "cost"], "generate": ["system", "cost"],
                  "identify": ["system", "exact"], "bench": ["bench"]}.get(command)
    if inputs is None:
        inputs = ["system", rng.choice(["exact", "noisy"])]
    target = ([None] + inputs)[rng.integers(len(inputs) + 1)]
    files = {}
    for name in inputs:
        data = mutate(clean[name], rng) if name == target else clean[name]
        files[name] = tmp / (name + (".csv" if name in ("exact", "noisy", "example") else ".json"))
        files[name].write_bytes(data)

    def pick(option):
        values = OPTIONS[option]
        return [option + "=" + values[rng.integers(len(values))]]

    out = ["--out", str(tmp / "out")]
    if command == "bench":
        return ["bench", "--config", str(files["bench"]), "--out-dir", str(tmp / "bench"),
                "--workers", "1"]
    argv = [command, "--system", str(files[inputs[0]])]
    if command in ("forward", "generate"):
        argv += ["--cost", str(files["cost"])] + pick("--horizon")
    if command == "forward":
        return argv + pick("--x0") + out
    if command == "generate":
        return argv + pick("--episodes") + pick("--seed") + pick("--snr-x") + pick("--snr-u") + out
    bundle = files[inputs[1]]
    if command == "identify":
        return argv + ["--bundle", str(bundle)] + out
    modes = ["exact"] if seed in EXAMPLE_SEEDS else ["exact", "risk-x", "risk-u", "residual-min"]
    mode = modes[rng.integers(len(modes))]
    return argv + ["--bundle", str(bundle), "--mode", mode] + pick("--phi") + out


def _refuse_constant(token):
    raise ValueError(f"non-standard JSON number {token}")


def read_back(command, path):
    """Load what `command` wrote to path as its reader would; raises if it
    does not read back."""
    if command in ("forward", "generate"):
        io.load_bundle(path)
    elif command in ("identify", "estimate"):
        json.loads(path.read_text(), parse_constant=_refuse_constant)


@pytest.mark.parametrize("seed", SEEDS)
def test_every_input_ends_in_a_documented_way(seed, clean_inputs, tmp_path, capsys, monkeypatch):
    argv = _case(seed, clean_inputs, tmp_path)
    raised = []

    def spy(*args, **kwargs):  # main prints its error inside the except block
        if kwargs.get("file") is sys.stderr:
            raised.append(sys.exc_info()[1])
        builtins.print(*args, **kwargs)

    monkeypatch.setattr(cli, "print", spy, raising=False)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            rc = cli.main(argv)
        except SystemExit as e:  # argparse refused an option value
            rc, usage = e.code, True
        else:
            usage = False
    err = capsys.readouterr().err
    assert not caught, f"{argv}: warning {caught[0].category.__name__}: {caught[0].message}"
    assert rc in (0, 1, 2, 3), f"{argv}: exit {rc}"
    if usage:
        assert rc == 2 and err.startswith("usage:") and ": error: " in err, argv
    elif rc == 0:
        assert err == "", argv
        read_back(argv[0], tmp_path / "out")
    else:
        assert err.startswith("error:") and len(raised) == 1, f"{argv}: {err!r}"
        assert (rc == 1) == isinstance(raised[0], (io.ParseError, OSError)), f"{argv}: {raised[0]!r}"


@pytest.mark.parametrize("seed", RENAME_SEEDS)
def test_unread_key_or_kind_exits_1(seed, clean_inputs, tmp_path, capsys):
    # a misspelt key was read as absent and an unknown kind as exact
    rng = np.random.default_rng([17, seed])
    target = ["system", "cost", "bench", "exact", "noisy"][seed % 5]
    files = {}
    for name in ("system", "cost", "bench", "exact", "noisy"):
        data = rename(clean_inputs[name], rng) if name == target else clean_inputs[name]
        files[name] = tmp_path / (name + (".csv" if name in ("exact", "noisy") else ".json"))
        files[name].write_bytes(data)
    bundle = files["noisy" if target == "noisy" else "exact"]
    out = ["--out", str(tmp_path / "out")]
    argv = {
        "cost": ["forward", "--system", str(files["system"]), "--cost", str(files["cost"]),
                 "--x0=1,2"] + out,
        "bench": ["bench", "--config", str(files["bench"]), "--out-dir", str(tmp_path / "b"),
                  "--workers", "1"],
        "noisy": ["estimate", "--system", str(files["system"]), "--bundle", str(bundle),
                  "--mode", "risk-x"] + out,
    }.get(target, ["identify", "--system", str(files["system"]), "--bundle", str(bundle)] + out)
    rc = cli.main(argv)
    err = capsys.readouterr().err
    assert rc == 1 and err.startswith("error:") and "Traceback" not in err, f"{argv}: {err!r}"
    assert not (tmp_path / "out").exists()
