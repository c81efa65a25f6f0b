"""Checks on the library's source text."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import skewrank

SRC = Path(skewrank.__file__).parent


def _raises_assertion_error(node) -> bool:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so an invariant the paper's
    # claims rest on must be an explicit raise, and of ArithmeticError
    # rather than a hand-raised AssertionError
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
            or isinstance(node, ast.Raise) and _raises_assertion_error(node)
        ]
    assert not found, f"asserts in the library: {found}"


def test_library_has_no_function_local_imports():
    # every dependency of a module is visible at its top
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for fn in ast.walk(tree)
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(fn)
            if isinstance(node, (ast.Import, ast.ImportFrom))
        ]
    assert not found, f"imports inside functions: {found}"


def _foreign_imports(tree) -> list[str]:
    """Modules a tree imports from outside the standard library, other than
    the package itself and its relative imports."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.append(node.module)
    return [name for name in names
            if name.partition(".")[0] not in sys.stdlib_module_names
            and name.partition(".")[0] != "skewrank"]


def test_library_imports_only_the_standard_library():
    # the package declares no dependencies, so a third-party import that
    # happens to be installed here would break a plain install elsewhere
    for bad in ("import numpy as np", "from numpy.linalg import matrix_rank",
                "import os, sympy"):
        assert _foreign_imports(ast.parse(bad)), bad
    for good in ("from __future__ import annotations", "import os.path",
                 "from .gfcodes import dual", "from skewrank import cli",
                 "from collections.abc import Iterable"):
        assert not _foreign_imports(ast.parse(good)), good
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{name}" for name in _foreign_imports(tree)]
    assert not found, f"imports from outside the standard library: {found}"


# functions that return an int wherever their value is integral, so `/` on
# one of them is float division
_INT_VALUED = {"gauss", "gamma", "beta", "xi", "eval_lambda"}


def _is_int_valued_call(node) -> bool:
    if not isinstance(node, ast.Call):
        return False
    fn = node.func
    # a module function, maybe reached through its module, or a method
    name = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
    return name in _INT_VALUED


def _float_divisions(tree) -> list[int]:
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
        and (_is_int_valued_call(node.left) or _is_int_valued_call(node.right))
        or isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Div)
        and _is_int_valued_call(node.value)
    ]


def test_no_true_division_of_int_valued_calls():
    # the package promises no floating point: an exact quotient of these
    # values is Fraction(a, b) or a checked divmod, never a / b
    for bad in ("gauss(q, x, k) / d", "d / qcombinat.xi(p, s)",
                "d /= s.eval_lambda(lam)", "beta(q, m, i) / gamma(q, m, i)"):
        assert _float_divisions(ast.parse(bad)), bad
    for good in ("Fraction(gauss(q, x, k), d)", "gauss(q, x, k) // d",
                 "gauss / d", "f(gauss(q, x, k)) / d"):
        assert not _float_divisions(ast.parse(good)), good
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{line}" for line in _float_divisions(tree)]
    assert not found, f"float division of an int-valued call: {found}"


def _names(node, name: str) -> bool:
    return (isinstance(node, ast.Name) and node.id == name
            or isinstance(node, ast.Attribute) and node.attr == name)


def _table_readers(tree) -> list[str]:
    """Functions other than rank_table that name _RANK_TABLES or call
    _rank_table_key."""
    return [
        fn.name
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        and fn.name != "rank_table"
        and any(
            _names(node, "_RANK_TABLES")
            or isinstance(node, ast.Call)
            and _names(node.func, "_rank_table_key")
            for node in ast.walk(fn)
        )
    ]


def test_rank_tables_read_only_by_rank_table():
    # the cap in rank_table is the one rule for when a space is tabulated;
    # a second reader of the cache would be a second rule, and a second
    # cache keyed per table would be kept beside it
    for bad in ("def f(key):\n    return key in _RANK_TABLES",
                "def g():\n    gfcodes._RANK_TABLES.clear()",
                "def view(p, f):\n"
                "    return _VIEWS.get(_rank_table_key(p, f))"):
        assert _table_readers(ast.parse(bad)), bad
    for good in ("def rank_table(key):\n    return _RANK_TABLES.get(key)",
                 "def rank_table(p, f):\n"
                 "    return _RANK_TABLES.get(_rank_table_key(p, f))",
                 "def _rank_table_key(p, f):\n    return (p.t, f.table_key())",
                 "_RANK_TABLES = {}"):
        assert not _table_readers(ast.parse(good)), good
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{name}" for name in _table_readers(tree)]
    assert not found, f"_RANK_TABLES or its key outside rank_table: {found}"


def _q_cuts(tree) -> list[str]:
    """Functions other than _lane_bits that compare q, a name q or an
    attribute .q, with the literal 2 or 16."""
    return [
        fn.name
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        and fn.name != "_lane_bits"
        and any(
            isinstance(node, ast.Compare)
            and any(_names(x, "q") for x in [node.left, *node.comparators])
            and any(isinstance(x, ast.Constant) and x.value in (2, 16)
                    and type(x.value) is int
                    for x in [node.left, *node.comparators])
            for node in ast.walk(fn)
        )
    ]


def test_untabled_ranker_chosen_only_by_lane_blocks():
    # _lane_bits is the one cut between bit lanes, byte lanes and single
    # words, read by _lane_blocks for every space with no table and by the
    # table build; a caller testing q itself would be a second copy of
    # that rule
    for bad in ("def f(field):\n    if field.q <= 16:\n        pass",
                "def g(q):\n    return 2 < q <= 16",
                "def h(q):\n    return 16 >= q",
                "def k(f):\n    return [x for x in f if x.q == 2]"):
        assert _q_cuts(ast.parse(bad)), bad
    for good in ("def _lane_bits(field):\n"
                 "    if field.q == 2:\n        pass\n"
                 "    if field.q <= 16:\n        pass",
                 "def f(p):\n    return p == 2",
                 "def g(q):\n    return q ** 16, q > 17, q == 2.0",
                 "def h(field):\n    return field.p == 2"):
        assert not _q_cuts(ast.parse(good)), good
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{name}" for name in _q_cuts(tree)]
    # factor_prime_power's input check, q < 2, is no ranker choice
    found = [x for x in found if x != "qcombinat.py:factor_prime_power"]
    assert not found, f"q compared with 2 or 16 outside _lane_bits: {found}"


_RANKERS = {"rank_table", "_RowWalk", "_lane_blocks"}


def _ranker_names(tree) -> list[int]:
    """Lines that name rank_table, _RowWalk or _lane_blocks, as a name, an
    attribute or an import."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id in _RANKERS
        or isinstance(node, ast.Attribute) and node.attr in _RANKERS
        or isinstance(node, ast.ImportFrom)
        and any(a.name in _RANKERS for a in node.names)
    ]


def test_rankers_named_only_in_gfcodes():
    # gfcodes alone chooses between the table and the lanes; a module
    # reaching for either would make that choice a second time
    for bad in ("from .gfcodes import DEFAULT_BUDGET, rank_table",
                "tbl = rank_table(p, f)",
                "walk = gfcodes._RowWalk(p, f, tbl, rows)",
                "any(map(any, gfcodes._lane_blocks(p, f, rows, w)))"):
        assert _ranker_names(ast.parse(bad)), bad
    for good in ("from .gfcodes import _rank_below, rank_census",
                 "below = _rank_below(p, f, rows, d)",
                 "name = 'rank_table'"):
        assert not _ranker_names(ast.parse(good)), good
    moments = (SRC / "moments.py").read_text(encoding="utf-8")
    planted = moments + "\n\ntbl = rank_table(params, field)\n"
    assert planted.count("\n") in _ranker_names(ast.parse(planted))
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name != "gfcodes.py":
            tree = ast.parse(path.read_text(encoding="utf-8"),
                             filename=str(path))
            found += [f"{path.name}:{line}" for line in _ranker_names(tree)]
    assert not found, f"rankers named outside gfcodes: {found}"


def _checks(tree) -> set[str]:
    """The module's public functions annotated to return an int."""
    return {
        node.name for node in tree.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
        and isinstance(node.returns, ast.Name) and node.returns.id == "int"
    }


def _called(tree) -> set[str]:
    """Names called in a module, bare or as an attribute."""
    return {
        node.func.id if isinstance(node.func, ast.Name) else node.func.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, (ast.Name, ast.Attribute))
    }


def test_each_identity_check_is_written_once():
    # selftest's checks are the one copy of each identity check: every one
    # runs from a test module, and no test module defines its own
    assert _checks(ast.parse("def f(qs) -> int: ...\n"
                             "def _g() -> int: ...\n"
                             "def h(): ...")) == {"f"}
    assert _called(ast.parse("selftest.f(qs)\ng(f)")) == {"f", "g"}
    checks = _checks(ast.parse((SRC / "selftest.py").read_text(encoding="utf-8")))
    assert {"gauss_identities", "krawtchouk_equivalences",
            "leibniz_x_rule", "random_codes"} <= checks
    called, defined = set(), []
    for path in sorted(Path(__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        called |= _called(tree)
        defined += [
            f"{path.name}:{node.name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef)
            and node.name in checks | {"leibniz_x_rhs"}
        ]
    assert checks <= called, f"checks no test calls: {sorted(checks - called)}"
    assert not defined, f"copies of a check in the tests: {defined}"


_CACHES = {"cache", "lru_cache"}


def _cache_kind(tree):
    """A function giving the functools cache a node names, or None."""
    names, modules = {}, set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            names |= {a.asname or a.name: a.name for a in node.names
                      if a.name in _CACHES}
        elif isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names
                        if a.name == "functools"}

    def kind(node):
        if isinstance(node, ast.Name):
            return names.get(node.id)
        if (isinstance(node, ast.Attribute) and node.attr in _CACHES
                and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            return node.attr
        return None

    return kind


def _unbounded_caches(tree) -> list[int]:
    """Lines naming functools.cache, or lru_cache with no finite int bound.

    A bound is an int literal, or a module-level name assigned one, given
    as maxsize or as the first argument.
    """
    kind = _cache_kind(tree)
    consts = {}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Constant)
                and type(node.value.value) is int):
            consts |= {t.id: node.value.value for t in node.targets
                       if isinstance(t, ast.Name)}

    def bounded(call) -> bool:
        size = [kw.value for kw in call.keywords if kw.arg == "maxsize"]
        size = (size or call.args)[:1]
        return bool(size) and (
            isinstance(size[0], ast.Constant) and type(size[0].value) is int
            or isinstance(size[0], ast.Name) and size[0].id in consts
        )

    ok = {
        id(node.func) for node in ast.walk(tree)
        if isinstance(node, ast.Call) and kind(node.func) == "lru_cache"
        and bounded(node)
    }
    return [node.lineno for node in ast.walk(tree)
            if kind(node) and id(node) not in ok]


_MUTABLE = {"dict", "list", "set", "bytearray"}


def _mutable(annotation) -> bool:
    """Is a return annotation missing, a mutable container (bare or
    subscripted), or a union with one?"""
    if annotation is None:
        return True
    if isinstance(annotation, ast.BinOp):
        return _mutable(annotation.left) or _mutable(annotation.right)
    if isinstance(annotation, ast.Subscript):
        annotation = annotation.value
    return isinstance(annotation, ast.Name) and annotation.id in _MUTABLE


def _filled_caches(tree) -> list[str]:
    """Functions under a functools cache whose return annotation is
    missing or a mutable container."""
    kind = _cache_kind(tree)
    return [
        fn.name for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(kind(d.func if isinstance(d, ast.Call) else d)
                for d in fn.decorator_list)
        and _mutable(fn.returns)
    ]


def test_no_cache_hands_out_a_value_its_callers_fill():
    # a cache hands the same object to every caller, so what it keeps must
    # be immutable: a container its callers fill is a second cache, with
    # no bound of its own, behind the bounded one
    before = ("from functools import lru_cache\n"
              "@lru_cache(maxsize=_FUNCTIONAL_SCHEMES)\n"
              "def _functional_rows(params: SchemeParams)"
              " -> dict[int, tuple[int, ...]]:\n"
              "    return {}")
    for bad in (before,
                "from functools import lru_cache\n@lru_cache(8)\n"
                "def f(x) -> dict[int, tuple]: pass",
                "from functools import lru_cache\n@lru_cache(8)\n"
                "def f(x) -> list: pass",
                "import functools\n@functools.lru_cache(maxsize=8)\n"
                "def f(x): pass",
                "from functools import cache as memo\n@memo\n"
                "def f(x) -> set[int] | None: pass",
                "from functools import lru_cache\n@lru_cache(8)\n"
                "def f(x) -> bytearray: pass"):
        assert _filled_caches(ast.parse(bad)), bad
    for good in ("from functools import lru_cache\n@lru_cache(8)\n"
                 "def f(q, n, m, i) -> tuple[int, ...]: pass",
                 "from functools import lru_cache\n@lru_cache(maxsize=8)\n"
                 "def p_matrix(params) -> KrawtchoukMatrix: pass",
                 "def f(x) -> dict: pass",
                 "from functools import partial\n@partial\n"
                 "def f(x) -> list: pass"):
        assert not _filled_caches(ast.parse(good)), good
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{name}" for name in _filled_caches(tree)]
    assert not found, f"caches handing out mutable values: {found}"


def test_every_cache_is_bounded():
    # a cache that grows with every scheme a long run touches is a leak;
    # each one the package keeps has a fixed bound on its entries
    for bad in ("from functools import lru_cache\n"
                "@lru_cache(maxsize=None)\ndef f(x): pass",
                "from functools import lru_cache\n@lru_cache\ndef f(x): pass",
                "from functools import cache\n@cache\ndef f(x): pass",
                "import functools\n@functools.lru_cache()\ndef f(x): pass",
                "import functools as ft\ng = ft.cache(f)",
                "from functools import lru_cache as memo\nSIZE = None\n"
                "@memo(maxsize=SIZE)\ndef f(x): pass",
                "from functools import lru_cache\ng = lru_cache(f)"):
        assert _unbounded_caches(ast.parse(bad)), bad
    for good in ("from functools import lru_cache\n_BOUND = 32\n"
                 "@lru_cache(maxsize=_BOUND)\ndef f(x): pass",
                 "from functools import lru_cache\n@lru_cache(16)\n"
                 "def f(x): pass",
                 "import functools\n@functools.lru_cache(maxsize=8)\n"
                 "def f(x): pass",
                 "from functools import partial\ncache = {}\n"
                 "def lru_cache(f): return f"):
        assert not _unbounded_caches(ast.parse(good)), good
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{line}" for line in _unbounded_caches(tree)]
    assert not found, f"caches without a finite bound: {found}"


# import, make_field and rank_table of an untabled space: what setup_s times,
# then one lane-ranked code; prints the byte-lane tables' fields after each
_LANE_SETUP = """
import random
from skewrank import SchemeParams, make_field, random_code, weight_distribution
from skewrank.gfcodes import _LANE_OPS, rank_table
p = SchemeParams(3, 6)
f = make_field(3)
assert rank_table(p, f) is None
print(sorted(_LANE_OPS))
weight_distribution(random_code(p, f, 2, random.Random(0)))
print(sorted(_LANE_OPS))
"""


def _fresh_python(*args: str) -> str:
    """Stdout of a fresh interpreter run with args, this source on its path."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_set_up_builds_no_byte_lane_tables():
    # setup_s times the import, make_field and rank_table; the byte-lane
    # translate tables wait for the first block that needs them
    out = _fresh_python("-c", _LANE_SETUP)
    assert out.split("\n") == ["[]", "[(3, None)]", ""]


_FLOAT_SCHEME_FIRST = """
from skewrank import SchemeParams, p_matrix
try:
    p_matrix(SchemeParams(2.0, 5))
except TypeError:
    pass
entries = p_matrix(SchemeParams(2, 5)).entries
print(entries[1], sorted({type(v).__name__ for row in entries for v in row}))
"""


def test_refused_float_scheme_leaves_no_float_matrix_cached():
    # float params equal and hash like int ones: the eigenmatrix cache
    # would hand a float matrix built for (2.0, 5) to every later (2, 5)
    assert _fresh_python("-c", _FLOAT_SCHEME_FIRST) == "(1, 27, -28) ['int']\n"


_IMPORT_SET = "import sys, skewrank.cli; print(sorted(sys.modules))"


def test_cli_import_loads_no_heavy_modules():
    # every CLI command starts a fresh process, so the import is part of
    # each call's time; these modules would take most of it
    loaded = set(ast.literal_eval(_fresh_python("-S", "-c", _IMPORT_SET)))
    heavy = {"dataclasses", "inspect", "ast", "dis", "tokenize", "typing",
             "pathlib"}
    assert "skewrank.cli" in loaded
    assert not loaded & heavy, sorted(loaded & heavy)


TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# names the traced benchmark run reads by getattr besides LAYER_FUNCTIONS;
# eval_lambda is read from LambdaScalar.__dict__, so the class must define it
_TRACED_BESIDES = (
    ("gfcodes", "rank_table"),
    ("gfcodes", "weight_distribution"),
    ("lambda_ring", "LambdaScalar.eval_lambda"),
)


def _layer_functions(tracer) -> tuple:
    """The (module, function) pairs of LAYER_FUNCTIONS in a tracer's tree."""
    for node in tracer.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "LAYER_FUNCTIONS"
                for t in node.targets):
            return ast.literal_eval(node.value)
    return ()


def _bindings(body, prefix: str = "") -> set[str]:
    """Names a module or class body binds; a class's own as Class.name."""
    out = set()
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            out.add(prefix + node.name)
        elif isinstance(node, ast.Assign):
            out |= {prefix + t.id for t in node.targets
                    if isinstance(t, ast.Name)}
        elif isinstance(node, ast.ImportFrom):
            out |= {prefix + (a.asname or a.name) for a in node.names}
        if isinstance(node, ast.ClassDef):
            out |= _bindings(node.body, f"{prefix}{node.name}.")
    return out


def _unbound(wanted, modules: dict) -> list[str]:
    """The (module, name) pairs of wanted that no module tree binds."""
    return [
        f"{mod}.{name}" for mod, name in wanted
        if mod not in modules or name not in _bindings(modules[mod].body)
    ]


def test_traced_benchmark_names_exist():
    # the traced benchmark run getattrs each of these names on the package
    # and would crash on a rename, so each must still be bound
    tracer = ast.parse('LAYER_FUNCTIONS = (("gfcodes", "dual"),)\n'
                       "RANK_TABLE_HIT = 'gfcodes.rank_table'")
    wanted = _layer_functions(tracer) + _TRACED_BESIDES
    good = {
        "gfcodes": ast.parse("from .q import rank_table\n"
                             "def dual(code): pass\n"
                             "weight_distribution = None"),
        "lambda_ring": ast.parse("class LambdaScalar:\n"
                                 "    def eval_lambda(self, lam): pass"),
    }
    assert not _unbound(wanted, good)
    renamed = {
        "gfcodes": ast.parse("def dual_code(code): pass\n"
                             "def rank_table(p, f): pass\n"
                             "def weight_distribution(code): pass"),
        "lambda_ring": ast.parse("def eval_lambda(s, lam): pass\n"
                                 "class LambdaScalar:\n"
                                 "    def evaluate(self, lam): pass"),
    }
    assert _unbound(wanted, renamed) == [
        "gfcodes.dual", "lambda_ring.LambdaScalar.eval_lambda"]
    assert _unbound([("moments", "find_msrd")], good) == ["moments.find_msrd"]

    layer = _layer_functions(ast.parse(TRACER.read_text(encoding="utf-8")))
    assert layer, f"no LAYER_FUNCTIONS in {TRACER.name}"
    modules = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in SRC.glob("*.py")
    }
    missing = _unbound(layer + _TRACED_BESIDES, modules)
    assert not missing, f"names the traced run binds are gone: {missing}"
