import contextlib
import io
import re
import subprocess
import sys
from pathlib import Path

import pytest

import uncprover
from uncprover.cli import build_parser, main
from uncprover.config import Budgets
from uncprover.cops import MAX_DEPTH, parse_cops
from uncprover.strategy import StrategyConfig, prove_unc

COPS_254 = "(VAR x)\n(RULES a -> f(c) a -> f(h(c)) f(x) -> h(f(x)))\n"
COPS_126 = "(VAR x y z)\n(RULES f(f(x,y),z) -> f(f(x,z),f(y,z)))\n"
AB_AC = "(RULES a -> b a -> c)\n"


@pytest.fixture
def run(tmp_path, capsys):
    def go(text, *args):
        p = tmp_path / "prob.trs"
        p.write_text(text)
        code = main(["prove", str(p), *args])
        captured = capsys.readouterr()
        return code, captured.out, captured.err
    return go


def test_yes_exit_code_and_first_line(run):
    code, out, _ = run(COPS_126)
    assert code == 0
    assert out.splitlines()[0] == "YES"


def test_no_exit_code(run):
    code, out, _ = run(AB_AC)
    assert code == 0
    assert out.splitlines()[0] == "NO"


def test_maybe_exit_code(run):
    # restricted method list that cannot decide this system
    code, out, _ = run(COPS_254, "--methods", "sno")
    assert code == 1
    assert out.splitlines()[0] == "MAYBE"


def test_input_error_exit_code(run):
    code, out, err = run("(VAR x) (RULES a -> x)")
    assert code == 2
    assert out == ""
    assert "error" in err


def test_nul_in_identifier_exit_code(run):
    # `\x00v1` is the canonical name of a variable; as a constant it made
    # critical pairs that are no renaming of each other look alike (a YES)
    C = "\x00v1"
    code, out, err = run(f"(VAR x)\n(RULES f({C}) -> k({C})\n f({C}) -> b g(x) -> k(x)"
                         f" g(x) -> b k({C}) -> b)\n")
    assert code == 2
    assert out == ""
    assert "2:10: identifier contains NUL" in err


def test_undeclared_name_is_a_constant(run):
    # without a VAR declaration, x is a nullary function symbol
    code, out, _ = run("(RULES a -> x)")
    assert code == 0
    assert out.splitlines()[0] == "YES"


def _nest(n: int, inner: str) -> str:
    return "f(" * n + inner + ")" * n


#: Shapes that made the prover overflow the stack, deeper than `MAX_DEPTH`.
DEEP_SHAPES = [
    lambda n: f"(RULES {_nest(n, 'a')} -> a)",
    lambda n: f"(VAR x)(RULES {_nest(n, 'x')} -> a  f(f(x)) -> b)",
    lambda n: f"(VAR x)(RULES {_nest(n, 'x')} -> a)",
    lambda n: f"(RULES a -> {_nest(n, 'b')}  a -> c)",
]


@pytest.mark.parametrize("shape", DEEP_SHAPES)
def test_term_at_the_nesting_bound_is_decided(run, shape):
    code, out, err = run(shape(MAX_DEPTH), "--timeout", "10")
    assert code == 0, err
    assert out.splitlines()[0] in ("YES", "NO")


def test_searches_past_the_nesting_bound_without_a_size_cap(run):
    # the joins of `pcl` and `scl` build f^200(a), f^300(a), ... from the
    # input's f^100(a); hashing and comparing them must not use the stack
    code, out, err = run(f"(RULES a -> {_nest(MAX_DEPTH, 'a')}  a -> b)",
                         "--budget-size", "0")
    assert code == 0, err
    assert out.splitlines()[0] == "NO"


@pytest.mark.parametrize("methods, code, first", [(("--methods", "pcl"), 1, "MAYBE"),
                                                  ((), 0, "NO")])
def test_search_that_outgrows_the_stack_gives_no_answer(run, methods, code, first):
    # with conversions 12 deep, `pcl`'s many-step join builds terms over a
    # thousand levels deep and closes no pair within its budget; that method
    # answers nothing and the default portfolio goes on to `cp`'s NO
    got, out, err = run(f"(RULES a -> {_nest(MAX_DEPTH, 'a')}  a -> b)",
                        "--budget-size", "0", "--budget-conv", "12", *methods)
    assert got == code, err
    assert out.splitlines()[0] == first
    assert "Traceback" not in err


@pytest.mark.parametrize("shape", DEEP_SHAPES)
@pytest.mark.parametrize("depth", [MAX_DEPTH + 1, 250, 400])
def test_deep_term_exit_code(run, shape, depth):
    code, out, err = run(shape(depth))
    assert code == 2
    assert out == ""
    assert "prob.trs:1:" in err and "deeper than" in err


def test_parser_defaults_are_the_strategy_defaults():
    args = build_parser().parse_args(["prove", "prob.trs"])
    config = StrategyConfig()
    assert args.timeout == config.timeout
    assert args.rounds == config.rounds
    assert tuple(args.methods.split(",")) == config.methods
    assert args.budget_conv == config.budgets.conv_depth
    assert args.budget_size == config.budgets.size_cap


def test_missing_file(capsys):
    code = main(["prove", "/nonexistent/file.trs"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_non_utf8_file_is_an_input_error(tmp_path, capsys):
    p = tmp_path / "prob.trs"
    p.write_bytes(b"(VAR x)\n(RULES f(x) -> \xff(x))\n")
    code = main(["prove", str(p)])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert f"error: {p}: " in err


def test_certificate_flag(run):
    code, out, _ = run(AB_AC, "--certificate")
    lines = out.splitlines()
    assert lines[0] == "NO"
    assert any("witness" in ln for ln in lines)
    assert any("certificate-format" in ln for ln in lines)


def test_methods_flag_selects_route(run):
    code, out, _ = run(COPS_254, "--methods", "sc", "--certificate")
    assert code == 0
    assert out.splitlines()[0] == "YES"
    assert "via (sc)" in out
    assert "f(h(c)) -> f(c)" in out


def test_bad_method_rejected(run):
    code, out, err = run(COPS_254, "--methods", "nonsense")
    assert code == 2 and "unknown method" in err


def test_determinism(run):
    first = run(COPS_254, "--certificate")
    second = run(COPS_254, "--certificate")
    assert first == second


def test_prove_unc_api_determinism():
    pf = parse_cops(COPS_254)
    r1 = prove_unc(pf, StrategyConfig())
    r2 = prove_unc(pf, StrategyConfig())
    assert r1 == r2


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "uncprover.cli", "prove", "/dev/null"],
        capture_output=True, text=True)
    assert proc.returncode == 2


def test_readme_library_snippet_and_exported_names():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    library = readme.split("## Library", 1)[1]
    snippet = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(snippet, {})
    assert out.getvalue() == "YES\n"
    for name in uncprover.__all__:
        assert getattr(uncprover, name, None) is not None, name
        assert f"`{name}`" in library, name


def test_decomposition_across_components(run):
    text = "(VAR x)\n(RULES g(x) -> g(g(x))  a -> b)\n"
    code, out, _ = run(text, "--certificate")
    assert out.splitlines()[0] == "YES"
    assert "2 components" in out


AC_G = "(VAR x y z)\n(RULES f(f(x,y),z) -> f(x,f(y,z))  f(x,y) -> f(y,x)  g(x) -> g(g(x)))\n"


def test_method_names_only_a_decided_answer():
    pf = parse_cops(AC_G)
    maybe = prove_unc(pf, StrategyConfig(methods=("sno",)))
    assert (maybe.answer, maybe.method) == ("MAYBE", None)
    yes = prove_unc(pf, StrategyConfig(methods=("rr",)))
    assert (yes.answer, yes.method) == ("YES", "rr")
    mixed = prove_unc(pf, StrategyConfig(methods=("omega", "rr")))
    assert (mixed.answer, mixed.method) == ("YES", "rr,omega")


def test_method_of_no_is_the_disproving_component():
    pf = parse_cops("(VAR x)\n(RULES g(x) -> g(g(x))  a -> b  a -> c)\n")
    res = prove_unc(pf, StrategyConfig(methods=("rr", "cp")))
    assert (res.answer, res.method) == ("NO", "cp")


def test_component_no_decides_whole(run):
    text = "(VAR x)\n(RULES g(x) -> g(g(x))  a -> b  a -> c)\n"
    code, out, _ = run(text, "--certificate")
    assert out.splitlines()[0] == "NO"


def test_rounds_flag_limits_completion(run):
    # one round is not enough to complete this system
    code, out, _ = run(COPS_254, "--methods", "sc", "--rounds", "1")
    assert out.splitlines()[0] == "MAYBE"
    code, out, _ = run(COPS_254, "--methods", "sc", "--rounds", "2")
    assert out.splitlines()[0] == "YES"


def test_completion_no_certificate_has_trace(run):
    code, out, _ = run(AB_AC, "--methods", "sc", "--certificate")
    assert out.splitlines()[0] == "NO"
    assert "conversion trace" in out


def test_timeout_yields_maybe(run):
    code, out, _ = run(COPS_254, "--timeout", "0.000001")
    assert code == 1
    assert out.splitlines()[0] == "MAYBE"


def test_budget_flags_accepted(run):
    code, out, _ = run(COPS_126, "--budget-conv", "3", "--budget-size", "25")
    assert out.splitlines()[0] == "YES"


@pytest.mark.parametrize("args", [("--timeout", "nan"), ("--timeout", "0"),
                                  ("--budget-size", "-3"), ("--budget-conv", "-2"),
                                  ("--methods", ",")])
def test_malformed_limits_rejected(run, args):
    code, out, err = run(COPS_254, *args)
    assert code == 2 and out == "" and "error" in err


@pytest.mark.parametrize("field", ["conv_depth", "size_cap", "max_class"])
def test_negative_budget_rejected(field):
    with pytest.raises(ValueError):
        Budgets(**{field: -1})
    assert getattr(Budgets(**{field: 0}), field) == 0
