"""The names and shapes that the benchmark's tracer reads from the package.

perfbench/tracer.py wraps package functions by name and reads attributes of
their results; a rename under src/ would break a traced benchmark run while
every other test stays green. The tracer is loaded here by path, unedited
(it imports only the standard library), and its WRAP table is checked
against the package, together with the result attributes and the call
forms it and perfbench/workloads.py depend on.
"""

import importlib
import importlib.util
from pathlib import Path

from gvforge import bounds as bd
from gvforge import cli
from gvforge import lenstra as ln
from gvforge import quadfield as qf

ROOT = Path(__file__).resolve().parent.parent
CODE = ROOT / "tests" / "golden" / "-4_9_13_1.code"


def load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_wrapped_name_is_a_callable_of_its_module():
    wrap = load_tracer().WRAP
    assert wrap
    for mod_name, fn_name, _ in wrap:
        mod = importlib.import_module("gvforge." + mod_name)
        assert callable(getattr(mod, fn_name, None)), (mod_name, fn_name)


def test_find_tau_reports_grid_and_bumps():
    box = ln.find_tau(qf.make_field(-4), 9, 1)
    assert isinstance(box.grid, int) and isinstance(box.bumps, int)


def test_verify_code_takes_threads_and_exposes_what_the_tracer_counts():
    code = ln.read_code_file(CODE)
    assert ln.verify_code(code, threads=1).ok
    assert len(code.codewords) > 1 and code.n > 0


def test_cli_accepts_the_threads_then_verify_form(capsys):
    assert cli.main(["--threads", "2", "verify", str(CODE)]) == 0
    capsys.readouterr()


def test_cli_certify_calls_the_bounds_names_the_tracer_wraps(monkeypatch,
                                                            capsys):
    """The tracer wraps bounds.certify and bounds.nfc_bound in bounds' own
    dict; a CLI certify reaches both through those names, so a traced run
    sees certify's span and counts its nfc_bound call."""
    calls = []

    def counting(name):
        fn = getattr(bd, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return counted

    for name in ("certify", "nfc_bound"):
        monkeypatch.setattr(bd, name, counting(name))
    assert cli.main(["certify", "--q", str(2 ** 42)]) == 0
    capsys.readouterr()
    assert sorted(calls) == ["certify", "nfc_bound"]
