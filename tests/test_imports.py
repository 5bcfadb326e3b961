"""Every import a library module binds is used in that module, every
public name a module defines is exported or read in the package, every
exported name is read by the package, the benchmark, the README's
examples or the acceptance tests, which also pass every defaulted
parameter of a public function, no module reads a private name of
another, `__all__` lists exactly what
`__init__` imports, only errors.py tests a scalar for finiteness or
words the message of `one_of`, `read_only_by` or `distinct`, no CLI
option that takes its default from a dataclass field also states one,
only rng.py imports scipy.special, no module sets a field of a result
record after building it, every file under tests/golden/ is named by a
test module, the witness path runs without
loading scipy.linalg, scipy.sparse, scipy.special's __init__ or scipy's
array-API shim, and a serial sweep and the CLI run without loading
multiprocessing."""

import ast
import dataclasses
import functools
import pathlib
import re

import pytest

import sparselasso
from sparselasso import cli, ensemble, lasso, sweep, witness

from oracles import witness_path_loads

MODULES = sorted(p for p in pathlib.Path(sparselasso.__file__).parent.glob("*.py") if p.name != "__init__.py")


def _dotted(node) -> str:
    """`a.b.c` for the name or attribute chain a.b.c, else the empty string."""
    attrs = []
    while isinstance(node, ast.Attribute):
        attrs.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(attrs)]) if isinstance(node, ast.Name) else ""


def _unused_imports(source: str) -> list:
    """Each name an import in source binds that source never reads, an
    annotation included; `import a.b` is read only through `a.b`."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.module != "__future__"):
            bound.update(alias.asname or alias.name for alias in node.names)
    used = {_dotted(node) for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))}
    return sorted(bound - used)


def test_unused_import_is_found():
    source = (
        "import os\n"
        "import os.path\n"
        "import importlib.machinery\n"
        "from typing import Optional, Sequence\n"
        "x: Sequence = os.sep + importlib.machinery.SOURCE_SUFFIXES[0]\n"
    )
    assert _unused_imports(source) == ["Optional", "os.path"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_uses_every_import(path):
    assert _unused_imports(path.read_text()) == []


def _reads(tree, absolute: bool) -> set:
    """The names tree reads: as a loaded name, as an attribute or through a
    relative `from ... import`, or through any `from ... import` when
    absolute."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and (absolute or node.level):
            read.update(alias.name for alias in node.names)
    return read


def _unread_public_names(sources: dict, exported) -> list:
    """Each top-level public def, class or assigned name of a module in
    sources (module name to source text), as `<module>.<name>`, that is
    not in exported and that no module in sources reads: as a loaded
    name, as an attribute or through a relative `from ... import`."""
    trees = {mod: ast.parse(source) for mod, source in sources.items()}
    known = set(exported).union(*(_reads(tree, absolute=False) for tree in trees.values()))
    found = []
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            found.extend(f"{mod}.{name}" for name in names if not name.startswith("_") and name not in known)
    return sorted(found)


def test_unread_public_name_is_found():
    sources = {
        "a": (
            "from . import b\n"
            "from .b import imported\n"
            "LIMIT = 1\n"
            "def helper():\n"
            "    return b.attribute + imported\n"
            "def _private():\n"
            "    pass\n"
            "class Exported:\n"
            "    pass\n"
            "unread, _skipped = helper(), 2\n"
        ),
        "b": "attribute = 2\nimported = 3\ndef never_read():\n    pass\n",
    }
    assert _unread_public_names(sources, {"Exported"}) == ["a.LIMIT", "a.unread", "b.never_read"]


def test_every_public_name_is_exported_or_read():
    package = pathlib.Path(sparselasso.__file__).parent
    sources = {path.stem: path.read_text() for path in package.glob("*.py")}
    assert _unread_public_names(sources, set(sparselasso.__all__)) == []


def _unreached_exports(sources: list, exported) -> list:
    """Each name in exported that no source text in sources reads."""
    return sorted(set(exported).difference(*(_reads(ast.parse(source), absolute=True) for source in sources)))


def test_unreached_export_is_found():
    sources = [
        "import sparselasso\nfrom sparselasso import imported, solve as run\nx = sparselasso.attribute + run(loaded)\n",
        "loaded = 1\nstored = 2\ndef defined():\n    pass\n",
    ]
    exported = {"attribute", "defined", "imported", "loaded", "solve", "stored"}
    assert _unreached_exports(sources, exported) == ["defined", "stored"]


def _sources_outside_the_tests() -> list:
    """The source texts of the package's modules other than __init__, of
    perfbench, of the README's python blocks and of the acceptance tests."""
    root = pathlib.Path(__file__).resolve().parents[1]
    examples = re.findall(r"^```python\n(.*?)^```", (root / "README.md").read_text(), re.DOTALL | re.MULTILINE)
    paths = [*MODULES, *(root / "perfbench").glob("*.py"), root / "tests" / "test_acceptance.py"]
    assert examples and len(paths) > len(MODULES) + 1
    return [*examples, *(path.read_text() for path in paths)]


def test_every_export_is_read_outside_the_tests():
    """Each exported name is read by a module of the package other than
    __init__, by perfbench, by a python block of the README or by the
    acceptance tests, so none is kept for the unit tests alone."""
    exported = set(sparselasso.__all__) - {"__version__"}
    assert _unreached_exports(_sources_outside_the_tests(), exported) == []


def _unpassed_defaults(package: dict, sources: list) -> list:
    """Each defaulted parameter of a public top-level function of a module in
    package (module name to source text), as `<module>.<function>(<name>)`,
    that no call in sources passes, by keyword or by position.  A call
    names the function, an attribute of that name or a `from ... import`
    alias of it, and a call with *args or **kwargs passes every parameter."""
    passed = {}  # function name: the positions and keywords its calls pass, "*" for all
    for tree in map(ast.parse, sources):
        imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
        aliases = {a.asname: a.name for node in imports for a in node.names if a.asname}
        for call in (node for node in ast.walk(tree) if isinstance(node, ast.Call)):
            if isinstance(call.func, ast.Name):
                name = aliases.get(call.func.id, call.func.id)
            elif isinstance(call.func, ast.Attribute):
                name = call.func.attr
            else:
                continue
            got = passed.setdefault(name, set())
            got.update(range(len(call.args)), (k.arg or "*" for k in call.keywords))
            if any(isinstance(a, ast.Starred) for a in call.args):
                got.add("*")
    found = []
    for mod, source in package.items():
        for node in ast.parse(source).body:
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            defaulted = [(i, a.arg) for i, a in enumerate(positional) if i >= first]
            defaulted += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            got = passed.get(node.name, set())
            found.extend(f"{mod}.{node.name}({name})" for i, name in defaulted if not {"*", i, name} & got)
    return sorted(found)


def test_unpassed_default_is_found():
    package = {
        "a": (
            "def f(x, y=1, z=2, *, w=3, v=4):\n    pass\n"
            "def g(c=1):\n    pass\n"
            "def h(c=1):\n    pass\n"
            "def k(c=1, d=2):\n    pass\n"
            "def _private(c=1):\n    pass\n"
            "class C:\n    def method(self, c=1):\n        pass\n"
        ),
    }
    sources = [
        "from a import g as run\nf(0, 5, w=6)\nrun(*args)\n",
        "import a\na.h(**kw)\nk(d=1)\n",
    ]
    assert _unpassed_defaults(package, sources) == ["a.f(v)", "a.f(z)", "a.k(c)"]


def test_every_default_is_passed_outside_the_tests():
    """Each defaulted parameter of a public function of the package is
    passed by some call outside the unit tests, so none is kept for them."""
    package = pathlib.Path(sparselasso.__file__).parent
    modules = {path.stem: path.read_text() for path in package.glob("*.py")}
    assert _unpassed_defaults(modules, _sources_outside_the_tests()) == []


def test_all_lists_exactly_the_imported_names():
    tree = ast.parse(pathlib.Path(sparselasso.__file__).read_text())
    imported = {a.asname or a.name for node in tree.body if isinstance(node, ast.ImportFrom) for a in node.names}
    assert len(sparselasso.__all__) == len(set(sparselasso.__all__))
    assert set(sparselasso.__all__) == imported | {"__version__"}


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _private_reads(source: str, siblings) -> list:
    """Each `<sibling>._name` read and `from .<sibling> import _name` in source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in siblings:
            if _is_private(node.attr):
                found.append(f"{node.value.id}.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.level:
            found.extend(f"{node.module}.{alias.name}" for alias in node.names if _is_private(alias.name))
    return sorted(found)


def test_private_sibling_read_is_found():
    source = (
        "from . import rng, theory\n"
        "from .lasso import _soft, solve\n"
        "x = theory._log_gap(3, 1) + rng.derive_key(1) + len(rng.__name__)\n"
        "y = x._private\n"
    )
    assert _private_reads(source, {"lasso", "rng", "theory"}) == ["lasso._soft", "theory._log_gap"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_reads_no_private_sibling_name(path):
    assert _private_reads(path.read_text(), {p.stem for p in MODULES}) == []


def _isfinite_uses(source: str) -> int:
    """The number of `math.isfinite` reads and `from math import isfinite` imports in source."""
    count = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            count += (node.value.id, node.attr) == ("math", "isfinite")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            count += sum(alias.name == "isfinite" for alias in node.names)
    return count


def test_isfinite_use_is_found():
    source = (
        "import math\n"
        "import numpy as np\n"
        "from math import isfinite, sqrt\n"
        "ok = math.isfinite(sqrt(2.0)) and bool(np.all(np.isfinite([1.0])))\n"
    )
    assert _isfinite_uses(source) == 2


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "errors.py"], ids=lambda p: p.stem)
def test_only_errors_checks_a_scalar_is_finite(path):
    assert _isfinite_uses(path.read_text()) == 0


# The messages one errors.py rule words, by rule.
_RULE_MESSAGES = {"one_of": "must be one of", "read_only_by": "is read only by", "distinct": "must not repeat a value"}


def _rule_messages(source: str, words: str) -> int:
    """The number of places in source, code or comment, that word a rule's message."""
    return source.count(words)


@pytest.mark.parametrize("words", _RULE_MESSAGES.values(), ids=_RULE_MESSAGES)
def test_membership_message_is_found(words):
    source = (
        "if mode not in MODES:\n"
        f"    raise ParameterError(f'mode {words} {{MODES}}, got {{mode!r}}')  # the rule\n"
        f"# sign_pattern {words} SIGN_PATTERNS\n"
    )
    assert _rule_messages(source, words) == 2


# The one_of cases keep their bare module ids, so those test ids stay stable.
_MESSAGE_CASES = [
    pytest.param(path, words, id=path.stem if rule == "one_of" else f"{path.stem}-{rule}")
    for rule, words in _RULE_MESSAGES.items()
    for path in MODULES
    if path.name != "errors.py"
]


@pytest.mark.parametrize("path, words", _MESSAGE_CASES)
def test_only_errors_words_the_allowed_values_message(path, words):
    assert _rule_messages(path.read_text(), words) == 0


def _dead_literals(source: str, fields_of) -> list:
    """Each `default=` or `required=` literal of an `Opt(...)` passed to
    `_filling(cls, ...)` in source whose name is a field of cls, as
    `<name>.<keyword>`; `_filling` overwrites both. fields_of maps the
    source text of cls to its field names."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "_filling":
            fields = fields_of(ast.unparse(node.args[0]))
            for opt in node.args[1:]:
                if isinstance(opt, ast.Call) and opt.args and isinstance(opt.args[0], ast.Constant) and opt.args[0].value in fields:
                    found.extend(f"{opt.args[0].value}.{kw.arg}" for kw in opt.keywords if kw.arg in ("default", "required"))
    return sorted(found)


def test_dead_option_literal_is_found():
    source = (
        "A = _filling(mod.Spec, Opt('n', int, help='rows'), Opt('p', int, default=3), *B,\n"
        "             Opt('k', int, required=True), Opt('seed', int, required=True), Opt('out', str, default='x'))\n"
        "C = (Opt('n', int, default=4),)\n"
    )
    fields_of = {"mod.Spec": {"n", "p", "k"}}.__getitem__
    assert _dead_literals(source, fields_of) == ["k.required", "p.default"]


def test_filled_options_state_no_default_of_their_own():
    def fields_of(expr):
        return {f.name for f in dataclasses.fields(functools.reduce(getattr, expr.split("."), cli))}

    assert _dead_literals(pathlib.Path(cli.__file__).read_text(), fields_of) == []


def _special_imports(source: str) -> list:
    """Each import of scipy.special, of a module under it or of a name from
    it in source, and each `scipy.special` attribute read, which imports
    the package through scipy's module __getattr__."""

    def under(name):
        return name == "scipy.special" or name.startswith("scipy.special.")

    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.extend(alias.name for alias in node.names if under(alias.name))
        elif isinstance(node, ast.ImportFrom) and not node.level and node.module is not None:
            if under(node.module):
                found.extend(f"{node.module}.{alias.name}" for alias in node.names)
            elif node.module == "scipy":
                found.extend(f"scipy.{alias.name}" for alias in node.names if alias.name == "special")
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if (node.value.id, node.attr) == ("scipy", "special"):
                found.append("scipy.special")
    return sorted(found)


def test_scipy_special_import_is_found():
    source = (
        "import scipy, scipy.sparse\n"
        "import scipy.special._ufuncs as uf\n"
        "from scipy.special import erf\n"
        "from scipy import linalg, special\n"
        "from scipy.specialized import x\n"
        "from .special import y\n"
        "z = scipy.special.ndtr(0.0) + scipy.sparse.eye(1)\n"
    )
    assert _special_imports(source) == ["scipy.special", "scipy.special", "scipy.special._ufuncs", "scipy.special.erf"]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "rng.py"] + [pathlib.Path(sparselasso.__file__)], ids=lambda p: p.stem)
def test_only_rng_imports_scipy_special(path):
    """scipy.special's __init__ loads scipy's array-API shim, about 280
    modules; rng.py takes ndtri without it, and nothing else may load it."""
    assert _special_imports(path.read_text()) == []


# The result records: each is built once, from the values that compute it.
_RECORDS = (sweep.TrialRecord, sweep.SweepRow, witness.WitnessReport, lasso.LassoSolution, ensemble.ObservationSet)


def _field_stores(source: str, fields) -> list:
    """Each attribute assignment in source, plain, augmented or annotated,
    whose attribute is in fields, as `<line>: <target>`, in source order."""
    stores = [
        node
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store) and node.attr in fields
    ]
    return [f"{node.lineno}: {ast.unparse(node)}" for node in sorted(stores, key=lambda n: (n.lineno, n.col_offset))]


def test_record_field_store_is_found():
    source = (
        "row = Row(p=1)\n"
        "row.successes = 2\n"
        "table.rows[0].trials += 1\n"
        "rep.u, other = None, 3\n"
        "self.note: int = 4\n"
        "row.unlisted = row.successes\n"
        "setattr(row, 'successes', 5)\n"
    )
    found = _field_stores(source, {"p", "successes", "trials", "u", "note"})
    assert found == ["2: row.successes", "3: table.rows[0].trials", "4: rep.u", "5: self.note"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_module_sets_a_field_of_a_built_record(path):
    fields = {f.name for record in _RECORDS for f in dataclasses.fields(record)}
    assert _field_stores(path.read_text(), fields) == []


def _orphaned_goldens(golden_dir: pathlib.Path, test_dir: pathlib.Path) -> list:
    """Names of the files in golden_dir that no test module in test_dir names."""
    sources = [path.read_text() for path in test_dir.glob("test_*.py")]
    return sorted(g.name for g in golden_dir.iterdir() if not any(g.name in source for source in sources))


def test_orphaned_golden_is_found(tmp_path):
    (tmp_path / "golden").mkdir()
    for name in ("kept.json", "orphan.json"):
        (tmp_path / "golden" / name).write_text("{}")
    (tmp_path / "test_kept.py").write_text('GOLDEN = "golden/kept.json"\n')
    (tmp_path / "helper.py").write_text('GOLDEN = "golden/orphan.json"\n')
    assert _orphaned_goldens(tmp_path / "golden", tmp_path) == ["orphan.json"]


def test_every_golden_is_named_by_a_test_module():
    tests = pathlib.Path(__file__).parent
    assert _orphaned_goldens(tests / "golden", tests) == []


def test_witness_path_never_loads_scipy_sparse():
    """A witness-mode sweep, serial and forked, build, h_vector,
    singular_extremes and the CLI's gen and witness never import
    scipy.sparse, run scipy.special's __init__ or load
    scipy._lib._array_api; to_csr and the solver load scipy.sparse when
    they are called, and scipy.special imported later holds rng's ndtri."""
    loaded = witness_path_loads()
    assert "scipy.sparse" not in loaded["witness path"], "the witness path loaded scipy.sparse"
    assert "scipy.special" not in loaded["witness path"], "the witness path ran scipy.special's __init__"
    assert "scipy._lib._array_api" not in loaded["witness path"], "the witness path loaded scipy's array-API shim"
    assert "scipy.sparse" in loaded["solve"]
