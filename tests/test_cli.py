"""Exit-code contract and output of every CLI subcommand."""
from __future__ import annotations

import ast
import pathlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lpkit.cli import main
from lpkit.instances import Instance, gen_krawtchouk, serialize_instance
from test_roots import _NO_SHRINK, _wall_bound

DATA = pathlib.Path(__file__).resolve().parent / "data"
SOURCES = {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
           for path in (pathlib.Path(__file__).resolve().parents[1] / "src" / "lpkit").glob("*.py")}


@pytest.fixture()
def k3_file(tmp_path):
    path = tmp_path / "k3.lp"
    assert main(["gen", "krawtchouk", "--d", "3", "-o", str(path)]) == 0
    return str(path)


@pytest.fixture()
def k2_file(tmp_path):
    path = tmp_path / "k2.lp"
    assert main(["gen", "krawtchouk", "--d", "2", "-o", str(path)]) == 0
    return str(path)


def test_check_both_routes(k3_file, capsys):
    assert main(["check", k3_file, "--route", "both"]) == 0
    out = capsys.readouterr().out
    assert "Q-polynomial" in out and "beta" in out and "delta*" in out


def test_check_machine_output_stable(k3_file, capsys):
    assert main(["check", k3_file, "--machine"]) == 0
    first = capsys.readouterr().out
    assert main(["check", k3_file, "--machine"]) == 0
    assert capsys.readouterr().out == first
    assert "qpoly=true" in first


def test_check_negative(tmp_path, capsys):
    bad = tmp_path / "bad.lp"
    bad.write_text("field rationals\nd 2\na 0 0 0\nb 2 1\nc 1 2\n"
                   "theta_star 5 5 5\n")
    assert main(["check", str(bad)]) == 1


def test_check_theorem_route_small_d(k2_file):
    assert main(["check", k2_file, "--route", "theorem"]) == 2
    assert main(["check", k2_file, "--route", "both"]) == 0  # falls back to direct


def test_delta(k3_file, capsys):
    assert main(["delta", k3_file]) == 0
    out = capsys.readouterr().out
    assert "0-1 1-2 2-3" in out and "1 2 2 1" in out


def test_leaf_confirmed(k3_file, capsys):
    assert main(["leaf", k3_file, "--r", "0", "--s", "1", "--method", "subspace"]) == 0
    assert "kappa = 0" in capsys.readouterr().out


def test_leaf_denied_appendix_a(k3_file):
    assert main(["leaf", k3_file, "--r", "1", "--s", "0", "--method", "appendix-a"]) == 1


def test_leaf_denied_all_methods(k3_file):
    for method in ("subspace", "recurrence", "ratio"):
        assert main(["leaf", k3_file, "--r", "0", "--s", "2", "--method", method]) == 1


def test_leaf_equal_indices(k3_file):
    assert main(["leaf", k3_file, "--r", "0", "--s", "0", "--method", "ratio"]) == 2


def test_leaf_appendix_b_precondition(k3_file):
    # theta_r = 1 differs from the constant row sum 3
    assert main(["leaf", k3_file, "--r", "1", "--s", "0", "--method", "appendix-b"]) == 2


def test_leaf_appendix_b_confirmed(k3_file):
    assert main(["leaf", k3_file, "--r", "0", "--s", "1", "--method", "appendix-b"]) == 0
    assert main(["leaf", k3_file, "--r", "0", "--s", "2", "--method", "appendix-b"]) == 1


def test_leaf_paranoid(k3_file):
    assert main(["leaf", k3_file, "--r", "0", "--s", "1", "--method", "appendix-a",
                 "--paranoid"]) == 0


def test_gen_random_env_seed(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("LPKIT_SEED", "9")
    assert main(["gen", "random", "--d", "3", "--field", "101"]) == 0
    first = capsys.readouterr().out
    assert main(["gen", "random", "--d", "3", "--field", "101", "--seed", "9"]) == 0
    assert capsys.readouterr().out == first


def test_gen_krawtchouk_too_small_field():
    assert main(["gen", "krawtchouk", "--d", "3", "--field", "5"]) == 2


def test_verify_aw2(k3_file, capsys):
    assert main(["verify-aw2", k3_file]) == 0
    assert "identity holds" in capsys.readouterr().out


def test_verify_aw2_exits_2_when_the_solved_witness_fails_the_identity(monkeypatch, capsys):
    # a solved witness satisfies the identity by construction, so a failure is an internal
    # error and never exit 1 ("false")
    import lpkit.cli

    monkeypatch.setattr(lpkit.cli, "verify_aw2", lambda sys_, witness: False)
    assert main(["verify-aw2", str(DATA / "k4_affine.lp")]) == 2
    out, err = capsys.readouterr()
    assert "identity fails" not in out and err.startswith("error: InternalInconsistency: ")


def test_rebase(k3_file, tmp_path, capsys):
    out = tmp_path / "rebased.lp"
    assert main(["rebase", k3_file, "--theta", "1", "-o", str(out)]) == 0
    assert "b " in out.read_text()
    assert main(["rebase", k3_file, "--theta", "7"]) == 2  # not an eigenvalue
    assert main(["rebase", k3_file, "--search", "-o", str(out)]) == 0


def test_rebase_denied(k2_file):
    # theta = 0 for K2 has a vanishing cosine
    assert main(["rebase", k2_file, "--theta", "0"]) == 1


def test_rebase_search_follows_the_hint_order(tmp_path, capsys):
    # k3.lp hints 3 1 -1 -3; without the hint the eigenvalues come in canonical order, -3 first
    path = tmp_path / "k3.lp"
    path.write_text((DATA / "k3.lp").read_text(encoding="utf-8"), encoding="utf-8")
    for theta, row_sum in (("3 1 -1 -3", "3"), ("-1 3 -3 1", "-1"), (None, "-3")):
        _rewrite_hint(path, theta)
        assert main(["rebase", str(path), "--search", "-o", str(tmp_path / "out.lp")]) == 0
        assert capsys.readouterr().err == f"rebased to row sum {row_sum}\n"


def _rewrite_hint(path, theta):
    """Replace the theta line of an instance file (drop it when theta is None)."""
    lines = [line for line in path.read_text().splitlines() if not line.startswith("theta ")]
    path.write_text("\n".join(lines + ([f"theta {theta}"] if theta is not None else [])) + "\n")


@pytest.mark.parametrize("field", [[], ["--field", "101"]])
@pytest.mark.parametrize("theta, error", [
    ("3 1 -1 7", "HintInvalid: 7 is not an eigenvalue"),
    ("3 1 1 -3", "HintInvalid: hint contains duplicates"),
    # a hint of the wrong length never reaches compute_spectrum: the parser rejects it
    ("3 1 -1", "ParseError: field 'theta' has 3 entries, expected 4"),
])
def test_invalid_hint_exits_2(tmp_path, capsys, field, theta, error):
    path = tmp_path / "hinted.lp"
    assert main(["gen", "krawtchouk", "--d", "3", "-o", str(path)] + field) == 0
    _rewrite_hint(path, theta)
    for command in ("check", "delta", "verify-aw2"):
        assert main([command, str(path)]) == 2
        assert capsys.readouterr().err == f"error: {error}\n"


def _no_factors(sys_):
    raise RuntimeError("the idempotent factors were built")


@pytest.mark.parametrize("text, error", [
    ("field rationals\nd 3\na 0 0 0 0\nb 3 2 1\nc 1 2 3\ntheta_star 3 1 -1 -3\ntheta 3 1 -1\n",
     "ParseError: field 'theta' has 3 entries, expected 4"),
    ("field rationals\nd 3\na 0 0 0 0\nb 3 2 1\nc 1 2 3\ntheta_star 3 1 -1 -3\ntheta 3 1 1 -3\n",
     "HintInvalid: hint contains duplicates"),
    ("field prime 101\nd 3\na 0 0 0 0\nb 3 2 1\nc 1 2 3\ntheta_star 3 1 -1 -3\ntheta 3 1 -1 7\n",
     "HintInvalid: 7 is not an eigenvalue"),
    # x^2 - 2 has no root mod 11
    ("field prime 11\nd 1\na 0 0\nb 1\nc 2\ntheta_star 0 1\n",
     "NotMultiplicityFree: found 0 distinct in-field eigenvalues, need 2"),
], ids=["length", "duplicate", "non-eigenvalue", "no-split"])
def test_eigenvalue_stage_errors_match_check(tmp_path, monkeypatch, capsys, text, error):
    # verify-aw2 and rebase stop at the eigenvalue stage and fail there as check does
    import lpkit.system
    path = tmp_path / "bad.lp"
    path.write_text(text)
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {error}\n"
    monkeypatch.setattr(lpkit.system, "_dagger_diagonal", _no_factors)
    for argv in (["verify-aw2"], ["verify-aw2", "--machine"], ["rebase", "--search"],
                 ["rebase", "--theta", "1"]):
        assert main(argv[:1] + [str(path)] + argv[1:]) == 2
        assert capsys.readouterr() == ("", f"error: {error}\n")


def test_a_non_root_from_the_finder_exits_2(tmp_path, monkeypatch, capsys):
    # a residue the splitting reports but that does not divide f is an internal error, never
    # a root of multiplicity 0
    import lpkit.modular
    path = tmp_path / "random.lp"
    assert main(["gen", "random", "--d", "3", "--field", "101", "-o", str(path)]) == 0
    _rewrite_hint(path, None)
    real = lpkit.modular._roots_mod_p

    def with_a_non_root(f, p):
        roots = real(f, p)
        return roots + [next(r for r in range(p) if r not in roots)]

    monkeypatch.setattr(lpkit.modular, "_roots_mod_p", with_a_non_root)
    assert main(["check", str(path), "--machine"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: InternalInconsistency: ") and err.endswith(" is not a root mod 101\n")


def test_missing_file():
    assert main(["check", "definitely-missing.lp"]) == 2


_K3 = serialize_instance(Instance(*gen_krawtchouk(3))).encode()


# raw bytes, or a valid file with a few bytes overwritten; every example reuses the fixtures
@settings(max_examples=100, deadline=None, phases=_NO_SHRINK,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.binary(max_size=300) | st.builds(lambda i, junk: _K3[:i] + junk + _K3[i + len(junk):],
                                           st.integers(0, len(_K3)), st.binary(min_size=1, max_size=8)))
def test_arbitrary_bytes_keep_the_exit_code_contract(tmp_path, capsys, data):
    path = tmp_path / "hostile.lp"
    path.write_bytes(data)
    with _wall_bound(5):
        codes = [main([cmd, str(path), *flags]) for cmd, *flags in (
            ["check"], ["delta"], ["verify-aw2"], ["rebase", "--search"],
            ["leaf", "--r", "0", "--s", "1", "--method", "subspace"])]
    err = capsys.readouterr().err
    assert set(codes) <= {0, 1, 2} and "Traceback" not in err and "unexpected" not in err


def test_usage_error(k3_file, capsys):
    assert main(["frobnicate"]) == 2
    assert main(["leaf", "x.lp", "--r", "0"]) == 2  # missing required flags
    # the one parser serves further calls in the same process
    assert [main(["--help"]), main(["check", k3_file])] == [0, 0]
    assert "usage: lpkit" in capsys.readouterr().out


def test_parse_error(tmp_path, capsys):
    bad = tmp_path / "float.lp"
    bad.write_text("field rationals\nd 2\na 0.5 0 0\nb 2 1\nc 1 2\ntheta_star 2 0 -2\n")
    assert main(["check", str(bad)]) == 2
    bad.write_bytes(b"field rationals\nlabel \xff\n")
    assert main(["check", str(bad)]) == 2
    assert capsys.readouterr().err.endswith(f"error: ParseError: {bad}: not UTF-8 text (byte 0xff)\n")


def test_gen_random_non_prime_field(capsys):
    assert main(["gen", "random", "--d", "3", "--field", "100"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "not a prime" in err


def test_gen_random_non_integer_env_seed(monkeypatch, capsys):
    monkeypatch.setenv("LPKIT_SEED", "abc")
    assert main(["gen", "random", "--d", "3", "--field", "101"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "LPKIT_SEED" in err


@pytest.mark.parametrize("d", ["0", "-2"])
def test_gen_krawtchouk_rejects_small_d(tmp_path, capsys, d):
    out = tmp_path / "k.lp"
    assert main(["gen", "krawtchouk", "--d", d, "-o", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err.count("\n") == 1


def test_unexpected_exception_exits_2(k3_file, monkeypatch, capsys):
    import lpkit.cli

    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(lpkit.cli, "build_delta", broken)
    assert main(["delta", k3_file]) == 2
    assert capsys.readouterr().err == "error: unexpected RuntimeError: boom\n"


def test_source_has_no_assert_statements():
    # invariants raise InternalInconsistency, which survives python -O
    assert SOURCES
    for name, tree in SOURCES.items():
        found = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not found, f"{name}: assert on lines {found}"


def test_source_imports_only_at_module_level():
    # a function-local import hides a dependency from the module's header
    for name, tree in SOURCES.items():
        found = [inner.lineno for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
                 for inner in ast.walk(node) if isinstance(inner, (ast.Import, ast.ImportFrom))]
        assert not found, f"{name}: import inside a function on lines {found}"


def _imported(tree):
    return {(alias.asname or alias.name).split(".")[0] for node in tree.body
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__" for alias in node.names}


def test_source_has_no_unused_imports():
    # __init__.py imports only to re-export; a name listed in __all__ counts as used
    for name, tree in SOURCES.items():
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used |= {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)}
        unused = _imported(tree) - used
        assert name == "__init__.py" or not unused, f"{name}: unused imports {sorted(unused)}"


def test_modular_works_on_raw_values():
    # modular.py takes and returns ints and Fractions; exactmath converts at its boundary
    tree = SOURCES["modular.py"]
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    names = {alias.name.split(".")[-1] for node in imports for alias in node.names}
    modules = {(node.module or "").split(".")[-1] for node in imports if isinstance(node, ast.ImportFrom)}
    assert not names & {"Scalar", "Poly", "exactmath"} and "exactmath" not in modules


def test_source_all_lists_exactly_the_public_definitions():
    # a stale export, or a public def/class left out of __all__, fails here
    for name, tree in SOURCES.items():
        listed = [set(ast.literal_eval(node.value)) for node in tree.body if isinstance(node, ast.Assign)
                  and [getattr(t, "id", None) for t in node.targets] == ["__all__"]]
        if not listed:  # errors.py and __init__.py declare no __all__
            continue
        defined = {node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        assigned = {t.id for node in tree.body if isinstance(node, ast.Assign)
                    for t in node.targets if isinstance(t, ast.Name)}
        stale = listed[0] - defined - assigned - _imported(tree)
        unlisted = {n for n in defined if not n.startswith("_")} - listed[0]
        assert not stale and not unlisted, f"{name}: stale {sorted(stale)}, unlisted {sorted(unlisted)}"


def test_pseudoprime_modulus_is_rejected(tmp_path, capsys):
    n = 3317044064679887385961981  # strong pseudoprime to every prime base up to 37
    path = tmp_path / "pseudo.lp"
    path.write_text(f"field prime {n}\nd 1\na 0 0\nb 1\nc 1\ntheta_star 0 1\n")
    assert main(["check", str(path)]) == 2
    assert "line 1" in capsys.readouterr().err
    assert main(["gen", "random", "--d", "3", "--field", str(n)]) == 2
    assert "not a prime" in capsys.readouterr().err


def test_parse_rejects_duplicate_key(tmp_path, capsys):
    path = tmp_path / "dup.lp"
    path.write_text("field rationals\nd 2\na 0 0 0\na 1 1 1\nb 2 1\nc 1 2\n"
                    "theta_star 2 0 -2\n")
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr().err == "error: ParseError: line 4: duplicate key 'a'\n"


@pytest.mark.parametrize("token", ["1_0", "١"])  # underscore; Arabic-Indic one
def test_parse_rejects_non_ascii_decimal_scalar(tmp_path, capsys, token):
    path = tmp_path / "scalar.lp"
    path.write_text(f"field rationals\nd 1\na 0 0\nb 1\nc 1\ntheta_star 0 {token}\n")
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "line 6" in err and repr(token) in err
