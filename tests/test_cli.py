"""CLI behavior: exit codes, determinism, schema-valid JSON."""

import contextlib
import errno
import importlib.resources
import importlib.util
import io
import json
import os
import re
import shlex
import subprocess
import sys
import time

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import diagdegen
from diagdegen import cli, degen, oracles
from diagdegen.cli import run
from diagdegen.projgor import N_CAP
from diagdegen.sweep import run_sweep


@pytest.fixture(scope="module")
def schema():
    text = (importlib.resources.files("diagdegen") / "schema.json").read_text()
    return json.loads(text)


def run_capture(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


JSON_COMMANDS = [
    ["roots", "B2"],
    ["weyl", "G2"],
    ["cosets", "A2", "--I", "2"],
    ["cosets", "A2", "--I", ""],
    ["orbits", "B2"],
    ["degen", "A2", "--I", "2", "--J", "1"],
    ["degen", "A2", "--I", "2", "--J", ""],
    ["flagdegen", "A2", "--J", "1"],
    ["pn", "A3", "--J", "1,2"],
    ["gorenstein", "A4", "--variant", "signed"],
    ["sweep", "A2"],
]


@pytest.mark.parametrize("argv", JSON_COMMANDS, ids=lambda a: " ".join(a))
def test_json_output_validates(capsys, schema, argv):
    code, out, err = run_capture(capsys, argv + ["--json"])
    assert code == 0, err
    jsonschema.validate(json.loads(out), schema)


@pytest.mark.parametrize("argv", JSON_COMMANDS, ids=lambda a: " ".join(a))
def test_output_is_byte_deterministic(capsys, argv):
    runs = []
    for _ in range(2):
        code, out, err = run_capture(capsys, argv + ["--json"])
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]
    texts = []
    for _ in range(2):
        code, out, err = run_capture(capsys, argv)
        assert code == 0
        texts.append(out)
    assert texts[0] == texts[1]


def test_degen_example_output(capsys):
    code, out, _ = run_capture(capsys, ["degen", "A2", "--I", "2", "--J", "1", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert len(payload["components"]) == 2
    assert all(c["dims"]["total"] == 2 for c in payload["components"])


def test_degen_open_stratum_is_single_component(capsys):
    code, out, _ = run_capture(capsys, ["degen", "A2", "--I", "2", "--J", "1,2", "--json"])
    assert code == 0
    assert len(json.loads(out)["components"]) == 1


def test_unfaithful_I_exits_3(capsys):
    code, out, err = run_capture(capsys, ["degen", "A1xA1", "--I", "1", "--J", "1"])
    assert code == 3
    assert "not faithful" in err


@pytest.mark.parametrize("type_str", ["A1xE6", "A1xE7"])
def test_unfaithful_I_is_refused_before_the_walk(monkeypatch, capsys, type_str):
    # |W^I| is 51 840 for A1xE6 and over SIZE_CAP for A1xE7: neither is walked
    def walk(*args):
        raise AssertionError("the walk of W^I started for an unfaithful I")

    monkeypatch.setattr(cli, "quotient", walk)
    code, out, err = run_capture(capsys, ["degen", type_str, "--I", "1", "--J", "1"])
    assert (code, out) == (3, "")
    assert err == "error: I is not faithful: it contains the diagram component [1]\n"


def test_rank_cap_exits_3(capsys):
    code, _, err = run_capture(capsys, ["sweep", "E7"])
    assert code == 3
    assert "cap" in err


@pytest.mark.parametrize("type_str", ["E6", "A6xA1"])
def test_sweep_refuses_groups_over_its_cap_before_building_w(monkeypatch, capsys, type_str):
    def refuse(*args):
        raise AssertionError("the sweep must refuse before it builds the root system or W")

    monkeypatch.setattr("diagdegen.sweep.build_root_system", refuse)
    monkeypatch.setattr("diagdegen.sweep.generate", refuse)
    start = time.perf_counter()
    code, out, err = run_capture(capsys, ["sweep", type_str])
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (3, "")
    assert err == f"error: {type_str}: Weyl group order exceeds the sweep's cap 10000\n"


def test_sweep_cap_admits_a6(monkeypatch):
    # |W(A6)| = 5 040: the sweep goes on to build W, which is stopped here.
    class Reached(Exception):
        pass

    def reached(rs):
        raise Reached

    monkeypatch.setattr("diagdegen.sweep.generate", reached)
    with pytest.raises(Reached):
        run_sweep("A6")


RUN_SWEEP = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "run_sweep.py")


def _child_env():
    """The environment for a child interpreter that imports this package."""
    src = os.path.dirname(os.path.dirname(diagdegen.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))


def test_run_sweep_script_refuses_e6_in_one_line():
    done = subprocess.run([sys.executable, RUN_SWEEP, "--types", "E6"], env=_child_env(),
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (3, "")
    assert done.stderr == "error: E6: Weyl group order exceeds the sweep's cap 10000\n"


def _load_run_sweep_script():
    spec = importlib.util.spec_from_file_location("run_sweep_script", RUN_SWEEP)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("exc", [RuntimeError, AssertionError])
def test_run_sweep_script_reports_internal_failure_as_exit_4(monkeypatch, capsys, exc):
    # exit 1 is a FAIL of the sweep; a crash must not look like one
    module = _load_run_sweep_script()

    def broken(rs):
        raise exc("enumerated 5 elements, order formula says 6")

    monkeypatch.setattr("diagdegen.sweep.generate", broken)
    monkeypatch.setattr(sys, "argv", [RUN_SWEEP, "--types", "A2"])
    code = module.main()
    captured = capsys.readouterr()
    assert (code, captured.out) == (4, "")
    assert captured.err == (
        "error: internal invariant failed: enumerated 5 elements, order formula says 6\n"
    )


def test_run_sweep_script_reports_out_of_memory_as_exit_3(monkeypatch, capsys):
    module = _load_run_sweep_script()

    def exhausted(rs):
        raise MemoryError

    monkeypatch.setattr("diagdegen.sweep.generate", exhausted)
    monkeypatch.setattr(sys, "argv", [RUN_SWEEP, "--types", "A2"])
    code = module.main()
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (3, "", "error: out of memory\n")


def test_bench_layers_script_measures_a2(monkeypatch):
    # No CI step runs the script; it times parsing and rendering apart from the handler.
    path = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "bench_layers.py")
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends its src
    spec = importlib.util.spec_from_file_location("bench_layers_script", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    row = module.measure("A2")
    assert row["reps"] == 6
    assert all(row[k] > 0 for k in ("quotient", "components", "components_all", "json", "text",
                                    "sweep", "bruhat", "roots", "orbits"))
    row = module.measure_quotient("A2", (2,))
    assert row["reps"] == 3 and row["quotient"] > 0 and row["peak_bytes"] > 0
    assert [type_str for type_str, _ in module.QUOTIENTS] == ["E6", "E7", "E8", "E8", "E8"]
    assert module.GORENSTEIN_RANKS == (9, 15)
    row = module.measure_gorenstein(3)
    assert set(row) == {"paper", "signed"} and all(t > 0 for t in row.values())


def _run_capped(argv, megabytes, script=None):
    """Run ``diagdegen argv`` in a child whose address space is capped at megabytes.

    With a script, the child runs it with argv in ``sys.argv[1:]`` instead.
    """
    import resource

    limit = megabytes * 10**6

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    entry = ("-c", script) if script else ("-m", "diagdegen.cli")
    return subprocess.run(
        [sys.executable, *entry, *argv],
        env=_child_env(), preexec_fn=cap_address_space, capture_output=True, text=True,
        timeout=120,
    )


def test_out_of_memory_exits_3_in_one_line():
    # A1^19 has 2^19 orbits, under SIZE_CAP but far over a 100 MB address space,
    # which still leaves room to start up and answer a small call.
    assert _run_capped(["roots", "A2"], 100).returncode == 0
    done = _run_capped(["orbits", "x".join(["A1"] * 19)], 100)
    assert (done.returncode, done.stdout) == (3, "")
    assert done.stderr == "error: out of memory\n"


#: ``diagdegen`` with G2's Cartan entry m[1][0] replaced by {entry}.
_WRONG_G2 = """
from diagdegen import cli, rootsys
right = rootsys._component_cartan
def wrong(family, n):
    m = right(family, n)
    if family == "G":
        m[1][0] = {entry}
    return m
rootsys._component_cartan = wrong
cli.main()
"""


def test_root_closure_short_of_the_degrees_exits_4():
    # m[1][0] = -2 is B2's matrix: its closure ends at 8 roots, where the degrees of G2
    # give 12, so without the count `roots G2` would print B2's roots with exit 0.
    done = _run_capped(["roots", "G2"], 300, _WRONG_G2.format(entry=-2))
    assert (done.returncode, done.stdout) == (4, "")
    assert done.stderr == ("error: internal invariant failed: "
                           "root closure of G2 has 8 roots, not |Phi| = 12\n")


def test_root_closure_past_the_degrees_exits_4_at_once():
    # m[1][0] = -4 is an affine matrix, whose closure never ends: without the count the
    # child runs for seconds until its address space is spent.
    start = time.perf_counter()
    done = _run_capped(["roots", "G2"], 300, _WRONG_G2.format(entry=-4))
    assert time.perf_counter() - start < 1.0
    assert (done.returncode, done.stdout) == (4, "")
    assert done.stderr == ("error: internal invariant failed: "
                           "root closure of G2 passes |Phi| = 12\n")


def test_walk_of_e8_over_a7_fits_in_150_mb():
    # W(E8)/W(A7): 17 280 reps, many of whose printed words have prefixes off W^I.
    done = _run_capped(["cosets", "E8", "--I", "1,3,4,5,6,7,8"], 150)
    assert done.returncode == 0, done.stderr
    assert len(done.stdout.splitlines()) == 17282


def test_trace_child_wraps_the_methods_the_benchmark_reads(tmp_path):
    # bench/run.py --trace 1 reads these spans; a renamed method would drop them.
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    trace = tmp_path / "trace"
    done = subprocess.run(
        [sys.executable, os.path.join("bench", "trace_child.py"), str(trace), "sweep", "A2"],
        cwd=root, env=_child_env(), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    header = json.loads(trace.read_bytes().split(b"\n", 1)[0])
    assert {"weyl.inverse", "weyl.reduced_word", "weyl.bruhat_rows", "weyl.bruhat_up_rows",
            "rootsys.sub_system"} <= set(header["names"])


@pytest.mark.parametrize("type_str", ["A3000", "A300000", "B2xD100000", "A" + "1" * 25])
def test_huge_rank_is_refused_cheaply(capsys, type_str):
    # Every verb, looped here so the test keeps one id per type.
    for verb in cli.VERBS:
        argv = [verb, type_str]
        for option in ("I", "J"):
            if option in cli._GRAMMAR[verb].takes:
                argv += [f"--{option}", ""]
        start = time.perf_counter()
        code, out, err = run_capture(capsys, argv)
        assert time.perf_counter() - start < 1.0, verb
        assert out == "", verb
        assert err.startswith("error: ") and err.count("\n") == 1, verb
        if verb in ("pn", "gorenstein") and type_str == "B2xD100000":
            assert code == 2 and "requires an irreducible type A_n" in err, verb
        else:  # the sweep's own cap reads "exceeds the sweep's cap"
            assert code == 3 and re.search(r"exceeds (the sweep's )?cap", err), verb


def test_rank_beyond_int_conversion_exits_2(capsys):
    code, out, err = run_capture(capsys, ["roots", "A" + "9" * 5000])
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["cosets", "E6", "--I", "2,3,4,5,6"],
    ["degen", "E6", "--I", "1,2,3,4,5", "--J", "2,4", "--json"],
    ["flagdegen", "B3", "--J", "1"],
    ["weyl", "E6"],
    ["weyl", "E8"],
    ["roots", "E8"],
    ["orbits", "E7"],
], ids=" ".join)
def test_catalogue_verbs_never_enumerate_w(monkeypatch, capsys, argv):
    def refuse(rs):
        raise AssertionError("the catalogue verbs must not enumerate W")

    monkeypatch.setattr("diagdegen.weyl.generate", refuse)
    assert not hasattr(cli, "generate")
    code, out, err = run_capture(capsys, argv)
    assert (code, err) == (0, "")
    assert out


def test_quotient_walk_refuses_more_than_256_roots(capsys):
    # A22 has 506 roots: the root system is refused before the walk starts.
    code, out, err = run_capture(capsys, ["cosets", "A22", "--I", ""])
    assert code == 3
    assert out == ""
    assert err == "error: A22: number of roots exceeds cap 256\n"


@pytest.mark.parametrize("argv,message", [
    (["cosets", "E8", "--I", ""], "E8: |W^I| = 696729600 exceeds cap 1000000"),
    (["orbits", "A1" + "xA1" * 19], "A1" + "xA1" * 19 + ": number of orbits 2^20 exceeds cap 1000000"),
], ids=["cosets E8 full flag", "orbits A1^20"])
def test_listing_over_the_size_cap_is_refused_cheaply(capsys, argv, message):
    start = time.perf_counter()
    code, out, err = run_capture(capsys, argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out, err) == (3, "", f"error: {message}\n")


def test_quotient_walk_admits_e8(capsys):
    code, out, err = run_capture(capsys, ["cosets", "E8", "--I", "1,2,3,4,5,6,7", "--json"])
    assert (code, err) == (0, "")
    assert len(json.loads(out)["reps"]) == 240


def test_usage_errors_exit_2(capsys):
    assert run_capture(capsys, ["degen", "Q7", "--I", "1", "--J", "1"])[0] == 2
    assert run_capture(capsys, ["degen", "H3", "--I", "1", "--J", "1"])[0] == 2
    assert run_capture(capsys, ["degen", "A2", "--I", "5", "--J", "1"])[0] == 2
    assert run_capture(capsys, ["degen", "A2", "--I", "1,x", "--J", "1"])[0] == 2
    assert run_capture(capsys, ["pn", "B3", "--J", "1"])[0] == 2
    assert run_capture(capsys, ["nonsense", "A2"])[0] == 2
    assert run_capture(capsys, ["degen", "A2"])[0] == 2


@pytest.mark.parametrize("flag", ["--I", "--J"])
@pytest.mark.parametrize("text,index", [("1,5", 5), ("1,0", 0), ("5,0", 5), ("-1", -1)])
def test_subset_index_out_of_range_message(capsys, flag, text, index):
    # The message names the first index out of range in the order given.
    argv = ["degen", "A2", "--I", "2", "--J", "1"]
    argv[argv.index(flag) + 1] = text
    code, out, err = run_capture(capsys, argv)
    assert (code, out) == (2, "")
    assert err == f"error: {flag}: index {index} out of range 1..2\n"


@pytest.mark.parametrize("argv,flag,text", [
    (["pn", "A13", "--J", "1_2"], "J", "1_2"),
    (["cosets", "A12", "--I", "\u0663"], "I", "\u0663"),
    (["degen", "A2", "--I", "+1", "--J", "1"], "I", "+1"),
], ids=["underscore", "arabic-indic digit", "plus sign"])
def test_subset_takes_only_ascii_integers(capsys, argv, flag, text):
    # int() reads "1_2" as 12, "\u0663" as 3 and "+1" as 1; the grammar is -?[0-9]+.
    code, out, err = run_capture(capsys, argv)
    assert (code, out) == (2, "")
    assert err == f"error: --{flag}: expected comma-separated integers, got {text!r}\n"


def test_subset_parts_may_carry_spaces(capsys):
    assert run_capture(capsys, ["degen", "A2", "--I", " 2 ", "--J", " 1, 2"]) == \
        run_capture(capsys, ["degen", "A2", "--I", "2", "--J", "1,2"])


# -- pn and gorenstein: n from the parsed type, bounded by projgor.N_CAP ------

@pytest.mark.parametrize("argv,digest", [
    (["pn", "A3", "--J", "1,2"], "db101c888c2f47cb9b9198c0d4db9b1d0f5654d16811d25a0b02bd9be97a9e88"),
    (["pn", "A12", "--J", "1"], "61515780fad2ef911259bbe6c39c9d73cbd94f6575bcad8ef6652ded30a7759d"),
    (["gorenstein", "A9", "--variant", "signed"],
     "edcc14130e7e2dac27966798b1798aafbe09b10417e57823602dceebc67fe2e8"),
], ids=" ".join)
def test_pn_and_gorenstein_build_no_root_system(monkeypatch, capsys, argv, digest):
    # The digests pin the text these calls printed while they still built A_n's roots.
    import hashlib

    def refuse(t):
        raise AssertionError("pn and gorenstein must not build a root system")

    monkeypatch.setattr("diagdegen.rootsys.build_root_system", refuse)
    monkeypatch.setattr(cli, "build_root_system", refuse)
    code, out, err = run_capture(capsys, argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_pn_json_equals_the_closed_forms_past_the_root_cap(capsys):
    from diagdegen.projgor import composition_from_J, pn_components

    code, out, err = run_capture(capsys, ["pn", "A20", "--J", "1,5,9", "--json"])
    assert (code, err) == (0, "")
    comp = composition_from_J(20, {1, 5, 9})
    got = json.loads(out)
    assert (got["n"], got["J"], got["blocks"]) == (20, [1, 5, 9], list(comp.blocks))
    assert [(c["i"], c["w_value"], c["smooth"], c["blowup_end"], c["dims"]["x"], c["dims"]["y"],
             c["dims"]["fiber"]) for c in got["components"]] == \
        [(c.i, c.w_value, c.smooth, c.blowup_end, c.x_dim, c.y_dim, c.fiber_dim)
         for c in pn_components(comp)]


@pytest.mark.parametrize("n,variant,p", [
    (17, "signed", -9), (17, "paper", None), (16, "signed", None), (16, "paper", None),
])
def test_gorenstein_past_the_root_cap(capsys, n, variant, p):
    code, out, err = run_capture(capsys, ["gorenstein", f"A{n}", "--variant", variant, "--json"])
    assert (code, err) == (0, "")
    assert json.loads(out)["p"] == p


def test_gorenstein_checks_the_coefficients_it_prints(monkeypatch, capsys):
    # One coefficient off by one breaks the identity the p-scan looks for,
    # and the root-matching cross-check catches the disagreement.
    from diagdegen import projgor

    numerators = projgor._hilbert_numerators

    def off_by_one(n):
        c = numerators(n)
        c[1] += 1
        return c

    monkeypatch.setattr(projgor, "_hilbert_numerators", off_by_one)
    code, out, err = run_capture(capsys, ["gorenstein", "A9", "--variant", "signed"])
    assert (code, out) == (4, "")
    assert err == ("error: internal invariant failed: "
                   "p-scan (None) and root matching (-5) disagree for n=9\n")


@pytest.mark.parametrize("argv", [["pn", "B20", "--J", "1"], ["gorenstein", "B20"]], ids=" ".join)
def test_pn_and_gorenstein_name_type_a_before_any_cap(capsys, argv):
    # B20 has 800 roots, over the root cap, but these verbs build no roots.
    code, out, err = run_capture(capsys, argv)
    assert (code, out) == (2, "")
    assert err == f"error: {argv[0]} requires an irreducible type A_n, got B20\n"


@pytest.mark.parametrize("argv", [
    ["pn", "A100000", "--J", "1"], ["gorenstein", "A1000"],
    ["pn", f"A{N_CAP + 1}", "--J", str(2 * N_CAP)],
    ["pn", "A" + "1" * 25, "--J", "1"], ["gorenstein", "A" + "1" * 25, "--variant", "signed"],
], ids=" ".join)
def test_pn_and_gorenstein_over_their_cap_are_refused_cheaply(capsys, argv):
    # The cap is checked from n before --J is read, as the root cap is for the other verbs.
    start = time.perf_counter()
    code, out, err = run_capture(capsys, argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (3, "")
    assert err == f"error: P^{argv[1][1:]}: n exceeds cap {N_CAP}\n"


def test_pn_over_its_cap_is_refused_in_a_small_address_space():
    start = time.perf_counter()
    done = _run_capped(["pn", "A100000", "--J", "1"], 100)
    assert time.perf_counter() - start < 1.0
    assert (done.returncode, done.stdout) == (3, "")
    assert done.stderr == f"error: P^100000: n exceeds cap {N_CAP}\n"


def test_pn_and_gorenstein_admit_their_cap(capsys):
    assert run_capture(capsys, ["pn", f"A{N_CAP}", "--J", ""])[0] == 0
    argv = ["gorenstein", f"A{N_CAP}", "--variant", "signed"]
    p = -(N_CAP + 1) // 2 if N_CAP % 2 else None
    code, out, err = run_capture(capsys, argv)
    assert (code, err) == (0, "")
    assert out.endswith(f"variant signed: p = {p}\n" if p is not None
                        else "variant signed: no integer p (Gorenstein obstructed)\n")
    code, out, err = run_capture(capsys, argv + ["--json"])
    assert (code, err) == (0, "")
    assert json.loads(out)["p"] == p


@pytest.mark.parametrize("text,message", [
    ("5", "index 5 out of range 1..3"),
    ("5,0", "index 5 out of range 1..3"),
    ("-1", "index -1 out of range 1..3"),
    ("1_2", "expected comma-separated integers, got '1_2'"),
])
def test_pn_subset_errors_name_n(capsys, text, message):
    assert run_capture(capsys, ["pn", "A3", "--J", text]) == (2, "", f"error: --J: {message}\n")


def test_payloads_get_their_verb_from_the_grammar_key(capsys):
    for argv in JSON_COMMANDS:
        ns = cli.parse_args(argv)
        assert "verb" not in cli._GRAMMAR[ns.verb].handler(ns)[0]
        assert json.loads(run_capture(capsys, argv + ["--json"])[1])["verb"] == argv[0]


def test_sweep_reports_pass(capsys):
    code, out, _ = run_capture(capsys, ["sweep", "A2"])
    assert code == 0
    assert "PASS" in out


def test_sweep_g2(capsys):
    code, out, _ = run_capture(capsys, ["sweep", "G2", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert all(not c["failures"] for c in payload["checks"])


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "roots.json"
    code, out, _ = run_capture(capsys, ["roots", "A2", "--json", "--out", str(target)])
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert payload["n_roots"] == 6


def test_out_flag_file_equals_stdout(tmp_path, capsys):
    argv = ["degen", "A3", "--I", "2", "--J", "1"]
    code, stdout, _ = run_capture(capsys, argv)
    assert code == 0
    target = tmp_path / "degen.txt"
    code, out, err = run_capture(capsys, argv + ["--out", str(target)])
    assert (code, out, err) == (0, "", "")
    assert target.read_text() == stdout
    assert os.listdir(tmp_path) == ["degen.txt"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
def test_failed_stdout_write_exits_2_in_one_line():
    # A full device, then a pipe whose reader is gone: one line and exit 2, and
    # nothing more at exit, where the interpreter flushes stdout once again.
    argv = [sys.executable, "-m", "diagdegen.cli", "roots", "A2"]
    with open("/dev/full", "w") as full:
        done = subprocess.run(argv, env=_child_env(), stdout=full, stderr=subprocess.PIPE,
                              text=True, timeout=60)
    assert (done.returncode, done.stderr) == (
        2, f"error: cannot write stdout: {os.strerror(errno.ENOSPC)}\n")
    child = subprocess.Popen(argv, env=_child_env(), stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True)
    child.stdout.close()
    err = child.stderr.read()
    assert (child.wait(timeout=60), err) == (
        2, f"error: cannot write stdout: {os.strerror(errno.EPIPE)}\n")


def test_out_flag_missing_directory_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "roots.txt"
    code, out, err = run_capture(capsys, ["roots", "A2", "--out", str(target)])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not (tmp_path / "missing").exists()


def test_out_flag_empty_path_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_capture(capsys, ["roots", "A1", "--out", ""])
    assert (code, out, err) == (2, "", "error: --out: empty path\n")
    assert os.listdir(tmp_path) == []


def test_out_flag_failed_rename_leaves_no_file(tmp_path, capsys):
    code, _, err = run_capture(capsys, ["roots", "A2", "--out", str(tmp_path)])
    assert code == 2
    assert err.startswith("error: ")
    assert os.listdir(tmp_path) == []


def test_out_flag_writes_through_a_symlink(tmp_path, capsys):
    argv = ["roots", "A1"]
    stdout = run_capture(capsys, argv)[1]
    real = tmp_path / "real.txt"
    real.write_text("old content\n")
    link = tmp_path / "link.txt"
    link.symlink_to(real.name)
    code, out, err = run_capture(capsys, argv + ["--out", str(link)])
    assert (code, out, err) == (0, "", "")
    assert link.is_symlink() and os.readlink(link) == real.name
    assert real.read_bytes() == stdout.encode()
    assert sorted(os.listdir(tmp_path)) == ["link.txt", "real.txt"]


def test_out_flag_refuses_a_fifo(tmp_path, capsys):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    code, out, err = run_capture(capsys, ["roots", "A1", "--out", str(fifo)])
    assert (code, out) == (2, "")
    assert err == f"error: cannot write {fifo}: not a regular file\n"
    assert fifo.is_fifo()
    assert os.listdir(tmp_path) == ["fifo"]


@pytest.mark.parametrize("exc", [RuntimeError, AssertionError])
def test_internal_failure_exits_4(monkeypatch, capsys, exc):
    def broken(ns):
        raise exc("cell dimensions of rep 3 are inconsistent")

    monkeypatch.setitem(cli._GRAMMAR, "cosets", cli._GRAMMAR["cosets"]._replace(handler=broken))
    code, out, err = run_capture(capsys, ["cosets", "A2", "--I", "1"])
    assert code == 4
    assert out == ""
    assert err == "error: internal invariant failed: cell dimensions of rep 3 are inconsistent\n"


def test_help_exits_0(capsys):
    assert run_capture(capsys, ["--help"])[0] == 0


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["degen", "--help"]], ids=" ".join)
def test_help_prints_the_grammar_on_stdout(capsys, argv):
    code, out, err = run_capture(capsys, argv)
    assert (code, err) == (0, "")
    if argv[0] == "degen":
        assert out.splitlines()[0] == (
            "usage: diagdegen degen <TYPE> --I a,b,... --J a,b,... [--json] [--out PATH]")
    else:
        assert out.splitlines()[0] == ("usage: diagdegen <verb> <TYPE> [--I a,b,...] [--J a,b,...] "
                                       "[--json] [--variant paper|signed] [--out PATH]")
        assert all(f"  {verb} " in out for verb in cli.VERBS)


@pytest.mark.parametrize("argv", [
    ["nonsense", "A2"],
    ["degen"],
    ["degen", "A2", "--I", "1"],
    ["roots", "A2", "--I", "1"],
    ["gorenstein", "A2", "--variant", "odd"],
    ["cosets", "A2", "--I"],
    ["roots", "A2", "B2"],
    ["roots", "A2", "--js"],
], ids=" ".join)
def test_usage_errors_are_one_line(capsys, argv):
    code, out, err = run_capture(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_option_values_after_equals_sign(capsys):
    assert (run_capture(capsys, ["degen", "A2", "--I=2", "--J=1", "--json"])
            == run_capture(capsys, ["degen", "--J", "1", "A2", "--json", "--I", "2"]))


def _break_sweep_oracles(monkeypatch):
    """Make the count oracle and the fixed-point check disagree with the catalogue."""
    def wrong_counts(rs, I):
        return {J: n + 1 for J, n in real_counts(rs, I).items()}

    real_counts = oracles.double_coset_counts
    monkeypatch.setattr(oracles, "double_coset_counts", wrong_counts)
    monkeypatch.setattr(degen, "fixed_point_profile", lambda g, I, w: set())


def test_sweep_failures_carry_repro_commands(monkeypatch, capsys, schema):
    _break_sweep_oracles(monkeypatch)
    code, out, _ = run_capture(capsys, ["sweep", "A2", "--json"])
    assert code == 1
    jsonschema.validate(json.loads(out), schema)
    failures = [f for c in json.loads(out)["checks"] for f in c["failures"]]
    assert {"J" in f for f in failures} == {True, False}
    for f in failures:
        argv = shlex.split(f["repro"])
        assert argv[:3] == ["diagdegen", "degen" if "J" in f else "cosets", "A2"]
        assert argv[argv.index("--I") + 1] == ",".join(map(str, f["I"]))
        if "J" in f:
            assert argv[argv.index("--J") + 1] == ",".join(map(str, f["J"]))
        assert run_capture(capsys, argv[1:])[0] == 0


def _run_quiet(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


_FUZZ_TYPES = ["A1", "A2", "A3", "B2", "B3", "C3", "G2", "A1xA1", "A2xA1", "B2xA1",
               "A1xA1xA1", "", "Q3", "A0", "A" + "1" * 25, "D3", "E5", "B2x", "a2", " A2"]
_SUBSET_TEXT = st.text(alphabet="0123456789,- ", max_size=6)
_OPTION = st.one_of(
    st.tuples(st.just("--I"), _SUBSET_TEXT),
    st.tuples(st.just("--J"), _SUBSET_TEXT),
    st.tuples(st.just("--variant"), st.sampled_from(["paper", "signed", "odd"])),
    st.just(("--json",)),
)


@settings(max_examples=100, deadline=None)
@given(
    verb=st.sampled_from(cli.VERBS + ("", "nonsense", "Degen", "-h")),
    type_str=st.one_of(st.none(), st.sampled_from(_FUZZ_TYPES)),
    options=st.lists(_OPTION, max_size=4),
)
def test_any_argv_exits_cleanly_and_deterministically(verb, type_str, options):
    argv = [verb] + ([] if type_str is None else [type_str])
    argv += [token for option in options for token in option]
    first = _run_quiet(argv)
    assert first[0] in (0, 1, 2, 3, 4)
    assert "Traceback" not in first[1] + first[2]
    if first[0] == 2:
        assert first[1] == ""
        assert first[2].startswith("error: ") and first[2].count("\n") == 1
    assert _run_quiet(argv) == first


# -- the --json renderer ------------------------------------------------------
#
# cli._render_json must produce the text of json.dumps(indent=2, sort_keys=True).

def _payload(argv):
    ns = cli.parse_args(argv)
    return cli._GRAMMAR[ns.verb].handler(ns)[0] | {"verb": ns.verb}  # as cli._run adds it


def _dumps(value):
    return json.dumps(value, indent=2, sort_keys=True)


RENDER_COMMANDS = JSON_COMMANDS + [
    ["roots", "A1"], ["roots", "G2xA1"], ["weyl", "A3"], ["weyl", "B2xA1"],
    ["cosets", "B3", "--I", ""], ["cosets", "D4", "--I", "1,3,4"], ["cosets", "F4", "--I", "2"],
    ["orbits", "A3"], ["orbits", "G2"],
    ["degen", "C3", "--I", "1", "--J", "2,3"], ["degen", "A1xA1", "--I", "", "--J", "1"],
    ["flagdegen", "A1", "--J", ""], ["flagdegen", "B3", "--J", "1"], ["flagdegen", "G2", "--J", "1,2"],
    ["pn", "A1", "--J", ""], ["pn", "A4", "--J", "1,3"],
    ["gorenstein", "A3"], ["gorenstein", "A2", "--variant", "signed"],
    ["sweep", "B2"], ["sweep", "A1xA1"],
]


@pytest.mark.parametrize("argv", RENDER_COMMANDS, ids=lambda a: " ".join(a))
def test_render_json_equals_json_dumps(argv):
    payload = _payload(argv)
    assert cli._render_json(payload) == _dumps(payload)


def test_render_json_equals_json_dumps_on_failing_sweep(monkeypatch):
    def broken_weight_set(g, I, w):
        raise AssertionError('weight sets "disagree" \u2014 at\tw')

    _break_sweep_oracles(monkeypatch)
    monkeypatch.setattr(degen, "weight_set", broken_weight_set)
    payload = _payload(["sweep", "A2"])
    failures = [f for c in payload["checks"] for f in c["failures"]]
    assert all("repro" in f for f in failures)
    assert any("error" in f for f in failures) and any("J" in f for f in failures)
    assert cli._render_json(payload) == _dumps(payload)


_JSON_TEXT = st.text(st.one_of(st.characters(), st.sampled_from('"\\/\n\t\x00\x1f\x7fé€😀')))
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-2**80, 2**80) | _JSON_TEXT,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(_JSON_TEXT, children, max_size=4),
    max_leaves=12,
)


@settings(max_examples=100, deadline=None)
@given(value=_JSON_VALUES)
def test_render_json_equals_json_dumps_on_any_value(value):
    assert cli._render_json(value) == _dumps(value)


@pytest.mark.parametrize("value", [1.5, {"x": [1, 2.0]}, (1, 2), {1: 2}])
def test_render_json_refuses_other_types(value):
    with pytest.raises(TypeError):
        cli._render_json(value)
