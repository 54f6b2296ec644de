"""Malformed JSON fed to the CLI gives exit 1 and one ``error:`` line on
stderr, never a traceback.

Each example takes one valid input file of a command (instance, point,
2EC point or certificate), corrupts it and runs the command in-process.
A corruption that certainly leaves the file malformed (a required key
deleted, a number replaced by something that is not one, the text cut
short) must exit 1.  Any other corruption (a node replaced by arbitrary
JSON, a list entry deleted) may also give a valid input, so it must exit
0, 1 or 2, and exit 1 only with a single ``error:`` line.

A PACE graph file (``fdt gen vc --pace``) that is not one also exits 1,
with its path and, where there is one, the bad line in the message.

Numbers in the arbitrary JSON stay small: a huge vertex count is valid
input that asks for a huge graph, which is not what these tests are about.
The draws are derandomized, so every run feeds the same files.
"""

import contextlib
import io
import json
import math
import os
import re
import tempfile
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fdt.cli import main

TRIANGLE = {
    "num_vars": 3, "kind": "binary",
    "rows": [{"coef": {"0": 1, "1": 1}, "rhs": 1},
             {"coef": {"1": 1, "2": 1}, "rhs": 1},
             {"coef": {"0": 1, "2": 1}, "rhs": 1}],
}
POINT = {"values": ["1/2", "1/2", "1/2"]}
POINT_2EC = {"vertices": 3, "edges": [[0, 1], [1, 2], [0, 2]], "x": [1, 1, 1]}

# name -> (arguments, [(option, file kind)])
COMMANDS = {
    "solve": (["solve"], [("--instance", "instance"), ("--point", "point")]),
    "solve --rational": (["solve", "--rational"],
                         [("--instance", "instance"), ("--point", "point")]),
    "domtoip": (["domtoip"], [("--instance", "instance"), ("--point", "point")]),
    "solve-2ec": (["solve-2ec"], [("--point", "point_2ec")]),
    "verify": (["verify"], [("--certificate", "certificate"), ("--instance", "instance")]),
    "verify-2ec": (["verify"], [("--certificate", "certificate_2ec"),
                                ("--point", "point_2ec")]),
}
REQUIRED = {
    "instance": {"num_vars", "rows", "coef", "rhs"},
    "point": {"values"},
    "point_2ec": {"vertices", "edges", "x"},
    "certificate": {"factor", "weights", "solutions", "base_point"},
    "certificate_2ec": {"factor", "weights", "solutions", "base_point"},
}

SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-3, 5),
                    st.floats(-10, 10), st.sampled_from([math.nan, math.inf, -math.inf]),
                    st.text(max_size=4))
ANY_JSON = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=6)
NOT_A_NUMBER = st.one_of(
    st.none(), st.booleans(), st.sampled_from(["", "x", "1/0", "nan", "inf", "1.2.3"]),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.lists(SCALARS, max_size=2), st.dictionaries(st.text(max_size=2), SCALARS, max_size=2))


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def valid_docs(tmp_path_factory):
    """One valid document of every file kind; the certificates are made by
    the CLI on the triangle."""
    d = tmp_path_factory.mktemp("valid")
    docs = {"instance": TRIANGLE, "point": POINT, "point_2ec": POINT_2EC}
    for kind, doc in docs.items():
        (d / f"{kind}.json").write_text(json.dumps(doc))
    for kind, argv in [
        ("certificate", ["solve", "--rational", "--instance", str(d / "instance.json"),
                         "--point", str(d / "point.json")]),
        ("certificate_2ec", ["solve-2ec", "--rational", "--point",
                             str(d / "point_2ec.json")]),
    ]:
        assert main(argv + ["--out", str(d / f"{kind}.json")]) == 0
        docs[kind] = json.loads((d / f"{kind}.json").read_text())
    for name in COMMANDS:
        code, _, err = run(docs, name, None, None)
        assert code == 0, (name, err)
    return docs


def paths(doc, prefix=()):
    """Every node of doc as a key path, the root first."""
    yield prefix
    items = doc.items() if isinstance(doc, dict) else (
        enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield from paths(value, prefix + (key,))


def node(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def is_number(v):
    if isinstance(v, bool):
        return False
    if isinstance(v, (int, float)):
        return True
    try:
        Fraction(v)
        return True
    except (TypeError, ValueError):
        return False


def replaced(doc, path, value):
    doc = json.loads(json.dumps(doc))
    if not path:
        return value
    node(doc, path[:-1])[path[-1]] = value
    return doc


def deleted(doc, path):
    doc = json.loads(json.dumps(doc))
    del node(doc, path[:-1])[path[-1]]
    return doc


def run(docs, name, corrupt_kind, text):
    """Run command name with its valid files, the one of corrupt_kind
    replaced by text (str, or bytes written as they are)."""
    argv, files = COMMANDS[name]
    argv = list(argv)
    with tempfile.TemporaryDirectory() as d:
        for flag, kind in files:
            path = os.path.join(d, f"{kind}.json")
            data = text if kind == corrupt_kind else json.dumps(docs[kind])
            with open(path, "wb" if isinstance(data, bytes) else "w") as fh:
                fh.write(data)
            argv += [flag, path]
        return run_cli(argv)


def assert_data_error(code, out, err):
    assert code == 1, (out, err)
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


@st.composite
def certainly_malformed(draw, docs):
    """(command, file kind, text) with the file certainly malformed."""
    name = draw(st.sampled_from(sorted(COMMANDS)))
    kind = draw(st.sampled_from([k for _, k in COMMANDS[name][1]]))
    doc = docs[kind]
    text = json.dumps(doc)
    how = draw(st.sampled_from(["delete", "not a number", "truncate"]))
    if how == "truncate":
        return name, kind, text[:draw(st.integers(0, len(text) - 1))]
    if how == "delete":
        required = [p for p in paths(doc) if p and p[-1] in REQUIRED[kind]]
        return name, kind, json.dumps(deleted(doc, draw(st.sampled_from(required))))
    # the numbers the loader reads (a 2EC certificate also holds its graph)
    numbers = [p for p in paths(doc) if p and p[0] in REQUIRED[kind]
               and not isinstance(node(doc, p), (dict, list)) and is_number(node(doc, p))]
    path = draw(st.sampled_from(numbers))
    return name, kind, json.dumps(replaced(doc, path, draw(NOT_A_NUMBER)))


@st.composite
def corrupted(draw, docs):
    """(command, file kind, text) with any node replaced or deleted."""
    name = draw(st.sampled_from(sorted(COMMANDS)))
    kind = draw(st.sampled_from([k for _, k in COMMANDS[name][1]]))
    doc = docs[kind]
    path = draw(st.sampled_from(list(paths(doc))))
    if path and draw(st.booleans()):
        return name, kind, json.dumps(deleted(doc, path))
    return name, kind, json.dumps(replaced(doc, path, draw(ANY_JSON)))


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_certainly_malformed_file_exits_1(valid_docs, data):
    name, kind, text = data.draw(certainly_malformed(valid_docs))
    assert_data_error(*run(valid_docs, name, kind, text))


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_corrupted_file_never_gives_a_traceback(valid_docs, data):
    name, kind, text = data.draw(corrupted(valid_docs))
    code, out, err = run(valid_docs, name, kind, text)
    assert code in (0, 1, 2)
    if code == 1:
        assert_data_error(code, out, err)
    assert "Traceback" not in err


@pytest.mark.parametrize("name, kind", [(name, kind) for name, (_, files) in COMMANDS.items()
                                        for _, kind in files])
def test_file_that_is_not_json_is_named(valid_docs, name, kind):
    # of a command's two files, the message must say which one is broken
    code, out, err = run(valid_docs, name, kind, json.dumps(valid_docs[kind])[:-1])
    assert_data_error(code, out, err)
    assert re.match(rf"error: .*/{kind}\.json:1: ", err), err
    # a byte-order mark of UTF-16 and "{}": not UTF-8, so not read as text
    code, out, err = run(valid_docs, name, kind, b"\xff\xfe{}")
    assert_data_error(code, out, err)
    assert re.match(rf"error: .*/{kind}\.json: .*utf-8", err), err


@pytest.mark.parametrize("doc,message", [
    # a row whose coef is a list, not a dict
    ({"num_vars": 2, "rows": [{"coef": [1], "rhs": 1}]}, "malformed instance"),
    ({"num_vars": 2.5, "rows": []}, "not an integer"),
    ({"num_vars": 2, "rows": [{"coef": {"0": 1}, "rhs": "1/0"}]}, "as a number"),
    ({"num_vars": -1, "rows": []}, "num_vars -1 is negative"),
])
def test_instance_examples(valid_docs, doc, message):
    code, out, err = run(valid_docs, "solve", "instance", json.dumps(doc))
    assert_data_error(code, out, err)
    assert message in err


@pytest.mark.parametrize("doc,message", [
    ({"vertices": -1, "edges": [], "x": []}, "vertex count -1 is negative"),
    (dict(POINT_2EC, edges=[[0, 1, 2], [1, 2], [0, 2]]),
     "malformed point: edge [0, 1, 2] is not a pair"),
    (dict(POINT_2EC, edges=[[0], [1, 2], [0, 2]]), "malformed point: edge [0] is not a pair"),
])
def test_point_examples(valid_docs, doc, message):
    code, out, err = run(valid_docs, "solve-2ec", "point_2ec", json.dumps(doc))
    assert_data_error(code, out, err)
    assert message in err


def test_float_certificate_with_nan_is_refused(valid_docs):
    # NaN compares false, so a NaN factor or weight used to pass every check
    cert = dict(valid_docs["certificate"], mode="float", factor=math.nan)
    code, out, err = run(valid_docs, "verify", "certificate", json.dumps(cert))
    assert_data_error(code, out, err)
    assert "non-finite" in err


@pytest.mark.parametrize("text, message", [
    ("c a header with one number\np 5\n1 2\n", r":2: expected 'p \.\.\. n m', got 'p 5\\n'"),
    ("p td 3 2\n1 2\n1 x\n", r":3: 'x' is not an integer"),
    ("p td n 2\n1 2\n", r":1: 'n' is not an integer"),
    ("", r": no header and no edges"),
    ("c only a comment\n", r": no header and no edges"),
    # vertices as the file numbers them, from 1
    ("p td 3 2\n0 1\n", r":2: vertex 0 outside \[1, 3\]"),
    ("p td 3 2\n1 5\n", r":2: vertex 5 outside \[1, 3\]"),
    ("1 2\n-1 2\n", r":2: vertex -1 below 1"),
    ("1 2\n2 2\n", r":2: edge 2 2 is a self-loop"),
    ("1 2\np td 3 1\n", r":2: header after the first edge"),
    ("p td -2 1\n1 2\n", r":1: vertex count -2 is negative"),
])
def test_bad_pace_file_is_named(tmp_path, text, message):
    # these used to print int()'s or max()'s message without the file
    path = tmp_path / "bad.gr"
    path.write_text(text)
    code, out, err = run_cli(["gen", "vc", "--pace", str(path),
                              "--out", str(tmp_path / "vc.json")])
    assert_data_error(code, out, err)
    assert re.match(rf"error: {re.escape(str(path))}{message}", err), err


@pytest.mark.parametrize("argv, message", [
    # a matching whose support has no fractional extreme point
    (["gen", "cv", "--cycle", "8", "--matching", "0-1,2-3,4-5,6-7"],
     r"support admits no fractional extreme point \(matching \[\(0, 1\)"),
    (["gen", "cv", "--cycle", "8"], r"gen cv needs --matching or --enumerate"),
    (["gen", "cv", "--cycle", "8", "--matching", "0-4-1,2-6"],
     r"--matching: '0-4-1' is not a pair a-b of vertices"),
    # a usage error exits 1 too: exit 2 is the gap signal and a failed verification
    (["solve", "--point", "x.json"],
     r"fdt solve: the following arguments are required: --instance"),
])
def test_bad_command_line_exits_1_with_one_error_line(tmp_path, argv, message):
    code, out, err = run_cli(argv + ["--out", str(tmp_path / "out.json")])
    assert_data_error(code, out, err)
    assert re.match(rf"error: {message}", err), err
