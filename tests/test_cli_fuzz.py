"""Fuzzing the command line: every input ends in an exit code.

Derandomized hypothesis tests build config files, topology files and
gap CSVs from random and repeated keys, bad values (nan, inf, 0,
negatives), undecodable bytes and stray sections, and run `cli.main`
in-process on them. Whatever the input, `main` returns 0, 1 or 2 and
raises nothing; exit 2 always leaves `results.csv` and a `[failures]`
section in `config.echo.txt`.

The grids stay tiny so each example runs in milliseconds: at most one
distinct antenna pair with counts of at most 2, at most 4 iterations
and at most 2 sample paths, one thread.
"""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from spectra_svi import cli, harness

NUMBERS = ("nan", "inf", "-inf", "0", "-0", "-1", "1", "2", "0.5", "1e308",
           "-2.5", "1e-320", "x", "")
COUNTS = ("-1", "0", "1", "2", "nan", "1.5")


def _values(good, bad):
    """Drawn values, each of `good` three times as likely as one of
    `bad`."""
    return st.sampled_from(tuple(good) * 3 + tuple(bad))


def _items(values, max_size=2):
    """Comma-separated lists of drawn values, repeats allowed."""
    return st.lists(values, min_size=1, max_size=max_size).map(", ".join)


# One antenna pair, or the same pair twice; counts of at most 2.
PAIRS = st.tuples(_values(("1", "2"), COUNTS),
                  _values(("x",), ("X", "by")),
                  _values(("1", "2"), COUNTS)).map("".join).flatmap(
    lambda pair: _values((pair,), (f"{pair}, {pair}", "")))

# A sigma of 1e308 overflows the noise draw: a failed cell and exit 2.
EXPERIMENT_VALUES = {
    "antennas": PAIRS,
    "sigmas": _items(_values(("0", "0.5", "1e308", "1e308"), NUMBERS)),
    "iterations": _values(("1", "4"), ("nan", "inf", "0", "-1", "")),
    "sample_paths": _values(("1", "2"), ("nan", "0", "-2")),
    "gap_every": _values(("1", "3", "99999"), ("0", "-1", "2.5")),
    "base_seed": _values(("0", "-7", "18446744073709551616"), ("inf",)),
    "topology": _values(("canonical7",), ("{topology}", "absent.ini")),
    "resample_channels": _values(("true", "no"), ("maybe",)),
    "record_timing": _values(("false", "on"), ("2",)),
    "record_throughput": _values(("true", "off"), ("",)),
    "speed": st.just("11"),
}
METHOD_LINES = st.tuples(
    _values(("am-smd", "m-smd", "mel"), ("newton",)),
    _values(("harmonic-sqrt", "harmonic", "horizon", "constant:0.5",
             "constant:1e308"),
            ("constant", "constant:0", "constant:-1", "constant:nan",
             "constant:inf", "harmonic:3", "linear", "")))
LAMBDAS = _items(_values(("0", "0.5", "1e308"), NUMBERS))


@st.composite
def config_files(draw):
    """A small valid config with up to three keys set to drawn values,
    then, now and then, a repeated key or section, a stray or missing
    section, or bytes that UTF-8 never decodes."""
    experiment = {"iterations": "3", "sample_paths": "1", "gap_every": "2",
                  "sigmas": draw(EXPERIMENT_VALUES["sigmas"])}
    for key in draw(st.lists(st.sampled_from(sorted(EXPERIMENT_VALUES)),
                             max_size=3)):
        experiment[key] = draw(EXPERIMENT_VALUES[key])
    methods = dict(draw(st.lists(METHOD_LINES, min_size=1, max_size=3)))
    sections = {"experiment": experiment, "methods": methods}
    if "mel" in methods or draw(st.integers(0, 4)) == 0:
        sections[draw(_values(("mel",), ("MEL",)))] = {
            draw(_values(("lambdas",), ("lambda",))): draw(LAMBDAS)}
    mutation = draw(_values(("none",) * 2,
                            ("extra", "drop", "repeat", "bytes")))
    if mutation == "extra":
        sections["extra"] = {"x": "1"}
    elif mutation == "drop":
        del sections[draw(st.sampled_from(sorted(sections)))]
    text = "".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
        for name, keys in sections.items())
    if mutation == "repeat":  # a key, or a whole section, given twice
        line = draw(st.sampled_from(text.splitlines()))
        text += ("[experiment]\n" if line.startswith("[") else "") + \
            line + "\n"
    data = text.encode()
    if mutation == "bytes":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff\xfe" + data[at:]
    return data


@st.composite
def topology_files(draw):
    """A valid two-user layout with up to three keys redrawn, now and
    then one key dropped: counts below 1, non-finite or non-positive
    distances and power caps, rows of the wrong length."""
    keys = {"tx_antennas": "2, 1", "rx_antennas": "1, 2",
            "max_power": "1.5", "distances": "\n    0.9 1.5\n    1.5 0.9"}
    users = draw(st.integers(1, 3))
    counts = _values(("1", "2"), COUNTS)
    redraw = {
        "tx_antennas": _items(counts, 3),
        "rx_antennas": _items(counts, 3),
        "max_power": _values(("0.5", "2"), NUMBERS),
        "distances": st.lists(st.lists(
            _values(("0.9", "1.5", "2"), ("nan", "inf", "-1", "0")),
            min_size=users, max_size=users).map(" ".join),
            max_size=users + 1).map(lambda rows: "\n    ".join([""] + rows)),
    }
    for key in draw(st.lists(st.sampled_from(sorted(keys)), max_size=3)):
        keys[key] = draw(redraw[key])
    if draw(_values((False,), (True,))):
        del keys[draw(st.sampled_from(sorted(keys)))]
    return ("[topology]\n" + "".join(
        f"{key} = {value}\n" for key, value in keys.items())).encode()


VALID_ROW = ("am-smd", "2", "2", "1", "0", "0", "50", "0.25", "0")
GAPS = st.one_of(
    _values(("0.25", "1e308", "0", "-1e308"), NUMBERS),
    st.floats(allow_nan=True, allow_infinity=True).map(repr))
CSV_FIELDS = (
    st.sampled_from(("mel", "", "m\xe9l")),
    st.sampled_from(("-1", "x", "9" * 400)),
    st.sampled_from(("0", "4")),
    st.sampled_from(NUMBERS),
    st.sampled_from(NUMBERS),
    st.sampled_from(("1", "-3")),
    st.sampled_from(("1", "2", "-4", "1.5", "9" * 300)),
    GAPS,
    st.sampled_from(NUMBERS),
)


@st.composite
def csv_rows(draw):
    """A valid row with a drawn gap (rows of one iteration are averaged,
    so large gaps can overflow their sum) and up to two more fields
    redrawn."""
    row = list(VALID_ROW)
    row[7] = draw(GAPS)
    for i in draw(st.lists(st.integers(0, 8), max_size=2)):
        row[i] = draw(CSV_FIELDS[i])
    return ",".join(row)


@st.composite
def csv_files(draw):
    header = draw(st.sampled_from((harness.CSV_HEADER,) * 4 +
                                  ("method,m,n", "")))
    rows = draw(st.lists(csv_rows(), max_size=4))
    rows *= draw(st.integers(1, 2))  # repeated rows, as in a merged file
    text = "\n".join([header] + rows) + draw(st.sampled_from(("\n", "")))
    return text.encode("utf-8")


def _main(argv):
    """cli.main with its output captured: the exit code and stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def _run(config: bytes, topology: bytes | None = None) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        topo = tmp / "topo.ini"
        if topology is not None:
            topo.write_bytes(topology)
        cfg = tmp / "exp.ini"
        cfg.write_bytes(config.replace(b"{topology}", str(topo).encode()))
        out = tmp / "out"
        code, err = _main(["run", "--config", str(cfg), "--out", str(out),
                           "--threads", "1"])
        assert code in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_NUMERICAL)
        assert "Traceback" not in err
        if code == cli.EXIT_CONFIG:
            assert err.startswith("config error: ")
            assert not out.exists()
        else:
            harness.read_csv(out / "results.csv")
            echo = (out / "config.echo.txt").read_text(encoding="ascii")
            failures = echo.partition("\n[failures]\n")[2].splitlines()
            assert bool(failures) == (code == cli.EXIT_NUMERICAL)


@settings(max_examples=120)
@given(config_files())
def test_run_ends_in_an_exit_code_for_any_config(config):
    _run(config)


@settings(max_examples=60)
@given(topology_files())
def test_run_ends_in_an_exit_code_for_any_topology_file(topology):
    config = (b"[experiment]\ntopology = {topology}\niterations = 2\n"
              b"sample_paths = 1\ngap_every = 1\n"
              b"[methods]\nam-smd = harmonic-sqrt\nm-smd = horizon\n")
    _run(config, topology)


@settings(max_examples=120)
@given(csv_files())
def test_plot_ends_in_an_exit_code_for_any_csv(data):
    with tempfile.TemporaryDirectory() as tmp:
        csv, svg = Path(tmp) / "results.csv", Path(tmp) / "gaps.svg"
        csv.write_bytes(data)
        code, err = _main(["plot", str(csv), str(svg)])
        assert code in (cli.EXIT_OK, cli.EXIT_CONFIG)
        assert svg.exists() == (code == cli.EXIT_OK)
        assert "Traceback" not in err
