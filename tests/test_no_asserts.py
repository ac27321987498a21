"""Source guards over every module of the package.

Checks that decide a verdict are raises, never assert statements: python -O
strips every assert, so a check written as one silently stops running there.
No module imports sympy: it serves tests and offline scripts only and must
never become a runtime dependency.  No module but the command line, whose
timings are wall-clock floats, writes a float literal or names `float`: the
mathematics is exact.  A float made at run time, by int / int, is beyond an
AST; `test_morphisms.py::test_classical_runs_keep_every_scalar_exact` checks
every scalar a classical run makes instead.  Every name a module lists in
`__all__` is an attribute of that module, so a deletion cannot leave a stale
export behind.
Every import is a module-level statement, so an import cycle cannot hide
behind an import deferred into a function.  Only `cartan`, which derives
them, and the command line, which builds one CartanAux per job, call
`symmetrize` or `quasi_inverse`: every other module reads the job's aux, so
the symmetrizer has one source.  Only `exact/` and `skew`, whose
`invert_coeff` makes the recovery phase's 1/p, build a `PolyFrac`: the
fraction type holds only a reciprocal c/p, which multiplies but neither adds
nor inverts, so a fraction made anywhere else could be one it cannot hold,
or meet arithmetic it does not have.
Every module-level import is used, or re-exported through `__all__`, so a
deletion cannot leave a dead import behind; a line marked `# noqa: F401`
keeps a name for a reader outside the package and is exempt.  Every private
function, class and method (one leading underscore) is named somewhere in the
package outside its own definition, so a deletion cannot leave a dead helper
behind.  Every name a module lists in `__all__` is read somewhere in the
package outside its own definition, so public API that no command reaches is
deleted rather than kept; the only exemptions are the entry points kept for
programs outside the package, each with its reason in `ENTRY_POINTS`.
Every public method, property and dataclass field of a class, and every
public attribute its constructor sets on self, is read as an attribute
somewhere in the package outside its own definition and outside its class's
`__init__` and `__post_init__`: a member that nothing reads, or that only
its own constructor checks, is deleted rather than kept.  Dunders are
exempt, and so is each member in `MEMBER_EXEMPTIONS`, with its reason.
Reads are matched by name, so a member that shares its name with one that
is read passes.
No module holds state that could outlive a job: no `functools.cache` or
`lru_cache` decorator, no module-level assignment of an empty `{}`, `[]`,
`set()`, `dict()` or `list()` that calls would fill, and no `global`
statement.  So a result from one job cannot leak into the next or into a
benchmark's repeated passes.  State scoped to one job passes: the Q(q) memo
sits in a `ContextVar` that `cli.run` sets for the job and resets after it,
and a `cached_property` lives on a per-job object.
No call star-unpacks a generator expression, as in `lcm(*(x for x in row))`:
CPython builds that argument tuple by resizing, and each such call parks the
resized tuple on the tuple free list until a full collection, which every
benchmark pass reads as resident memory.  `lcm(*[x for x in row])` does not.
Every module of the package is covered, so a new module cannot slip past any
guard.
"""

import ast
import importlib
from collections import Counter
from functools import cache
from pathlib import Path

import pytest

import borelweyl

PACKAGE = Path(borelweyl.__file__).resolve().parent
MODULES = sorted(path.relative_to(PACKAGE).as_posix() for path in PACKAGE.rglob("*.py"))


def test_the_guard_sees_the_arithmetic_core():
    assert {"exact/laurent.py", "exact/endo.py", "exact/qq.py", "skew.py"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_module_has_no_assert_statement(module):
    path = PACKAGE / module
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"assert statements in {module} at lines {lines}"


def _imports(tree):
    """(line, absolute module name) for every import statement."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.lineno, node.module


@pytest.mark.parametrize("module", MODULES)
def test_module_does_not_import_sympy(module):
    path = PACKAGE / module
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [line for line, name in _imports(tree) if name.split(".")[0] == "sympy"]
    assert lines == [], f"sympy imported in {module} at lines {lines}"


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_only_at_module_level(module):
    path = PACKAGE / module
    tree = ast.parse(path.read_text(), filename=str(path))
    top = {id(node) for node in tree.body}
    lines = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top
    ]
    assert lines == [], f"imports below module level in {module} at lines {lines}"


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    path = PACKAGE / module
    source = path.read_text()
    tree = ast.parse(source, filename=str(path))
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | set(_exported(tree))
    unused = [
        (node.lineno, name)
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        and not any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno])
        for name in (alias.asname or alias.name.split(".")[0] for alias in node.names)  # `import a.b` binds a
        if name not in used
    ]
    assert unused == [], f"unused imports in {module}: {unused}"


def _exported(tree) -> list:
    """The names a module lists in `__all__`, in order; none without one."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def _names(tree):
    """Every identifier a tree names: variables, attributes and imported names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def _private_definitions(tree):
    """Module-level functions and classes, and methods, whose name has one leading underscore."""
    for node in tree.body:
        inner = node.body if isinstance(node, ast.ClassDef) else []
        for item in [node, *inner]:
            if (
                isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and item.name.startswith("_")
                and not item.name.startswith("__")
            ):
                yield item


@cache
def _parse(module):
    path = PACKAGE / module
    return ast.parse(path.read_text(), filename=str(path))


@pytest.mark.parametrize("module", MODULES)
def test_module_has_no_dead_private_helper(module):
    named = Counter(name for other in MODULES for name in _names(_parse(other)))
    dead = [
        (node.lineno, node.name)
        for node in _private_definitions(_parse(module))
        if named[node.name] == Counter(_names(node))[node.name]  # only its own body names it
    ]
    assert dead == [], f"private helpers in {module} named nowhere else in the package: {dead}"


# public names that nothing in the package reads, kept for programs outside it
ENTRY_POINTS = {
    ("cli.py", "parse_report"): "docs/report-schema.md promises it reads every structured report back",
    ("cli.py", "parse_matrix"): "turns the text a user would type into a validated CartanMatrix",
    ("cartan.py", "catalog_matrix"): "hands a program a catalog matrix by its name, as the CLI accepts it",
}


def _reads(tree):
    """Every identifier a tree reads: loaded variables and attributes, not
    assignment targets, definitions or import aliases."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr


@pytest.mark.parametrize("module", MODULES)
def test_module_exports_only_names_the_package_reads(module):
    read = Counter(name for other in MODULES for name in _reads(_parse(other)))
    tree = _parse(module)
    definitions = [node for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    own = {node.name: Counter(_reads(node)) for node in definitions}  # a class reads itself in its methods
    unread = [
        name
        for name in _exported(tree)
        if (module, name) not in ENTRY_POINTS and read[name] == own.get(name, Counter())[name]
    ]
    assert unread == [], f"{module} exports names the package reads nowhere outside their definition: {unread}"


def test_every_exempt_entry_point_is_exported():
    stale = [(module, name) for module, name in ENTRY_POINTS if name not in _exported(_parse(module))]
    assert stale == []


# public class members that nothing in the package reads, kept for readers outside it
MEMBER_EXEMPTIONS = {
    ("biproduct.py", "RewriteSystem.redexes"): "the perfbench tracer wraps it by name to count rewrite steps",
    ("morphisms.py", "VerificationReport.recovered"):
        "the recovery oracle in tests/test_template_oracles.py compares it",
}
_CONSTRUCTORS = ("__init__", "__post_init__")


def _attribute_reads(tree) -> Counter:
    return Counter(
        node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    )


def _members(cls):
    """(definition, name) of every public function, annotated field and
    constructor-set attribute of a class."""
    for item in cls.body:
        if isinstance(item, ast.FunctionDef) and item.name in _CONSTRUCTORS:
            for node in ast.walk(item):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Store)
                    and getattr(node.value, "id", None) == "self"
                ):
                    yield node, node.attr
        elif isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield item, item.name
        elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
            yield item, item.target.id


def _unread_members(tree, read: Counter) -> list:
    """The label Class.member of every public member of a class in tree that
    `read`, the package's attribute reads, holds no more often than the
    member's own definition and its class's constructors read it."""
    unread = []
    for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
        constructors = sum(
            (_attribute_reads(item) for item in cls.body
             if isinstance(item, ast.FunctionDef) and item.name in _CONSTRUCTORS),
            Counter(),
        )
        for node, name in _members(cls):
            label = f"{cls.name}.{name}"
            if name.startswith("_") or label in unread:
                continue
            if read[name] == constructors[name] + _attribute_reads(node)[name]:
                unread.append(label)
    return unread


def test_the_class_member_guard_sees_every_kind_of_member():
    source = (
        "@dataclass\nclass A:\n    kept: int\n    dead: int\n    checked: int\n"
        "    def __post_init__(self):\n        if self.checked: raise ValueError\n"
        "    def used(self): return self.kept + self.helper()\n"
        "    def helper(self): return 1\n"
        "    @property\n    def unused(self): return self.unused\n"
        "    def _private(self): pass\n"
        "class B:\n    def __init__(self, x):\n        self.seen = x\n        self.unseen = self.seen\n"
        "def f(a, b): return a.used(), b.seen\n"
    )
    tree = ast.parse(source)
    assert _unread_members(tree, _attribute_reads(tree)) == ["A.dead", "A.checked", "A.unused", "B.unseen"]


@cache
def _package_attribute_reads() -> Counter:
    return sum((_attribute_reads(_parse(module)) for module in MODULES), Counter())


@pytest.mark.parametrize("module", MODULES)
def test_module_has_no_class_member_the_package_never_reads(module):
    unread = [
        label for label in _unread_members(_parse(module), _package_attribute_reads())
        if (module, label) not in MEMBER_EXEMPTIONS
    ]
    assert unread == [], f"{module} has class members read only by their own definition or constructor: {unread}"


def test_every_exempt_member_is_still_unread():
    stale = [
        (module, label) for module, label in MEMBER_EXEMPTIONS
        if label not in _unread_members(_parse(module), _package_attribute_reads())
    ]
    assert stale == []


def _calls(module, names):
    """Lines of `module` that call a function or method named in `names`."""
    path = PACKAGE / module
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) in names
    ]


@pytest.mark.parametrize("module", [m for m in MODULES if m not in ("cartan.py", "cli.py")])
def test_module_reads_the_symmetrizer_off_the_jobs_aux(module):
    lines = _calls(module, ("symmetrize", "quasi_inverse"))
    assert lines == [], f"symmetrize or quasi_inverse called in {module} at lines {lines}"


@pytest.mark.parametrize("module", [m for m in MODULES if not m.startswith("exact/") and m != "skew.py"])
def test_module_makes_no_fraction_outside_the_recovery_phase(module):
    lines = _calls(module, ("PolyFrac",))
    assert lines == [], f"PolyFrac built in {module} at lines {lines}"


@pytest.mark.parametrize("module", [m for m in MODULES if m != "cli.py"])
def test_module_has_no_float(module):
    path = PACKAGE / module
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)))
        or (isinstance(node, ast.Name) and node.id == "float")
    ]
    assert lines == [], f"floats in {module} at lines {lines}"


_CACHES = {"cache", "lru_cache"}
_EMPTY_CALLS = {"set", "dict", "list"}


def _lasting_state(tree):
    """(line, what) for every cache decorator, module-level empty container and
    `global` statement in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Global):
            yield node.lineno, "global"
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for deco in node.decorator_list:
                target = deco.func if isinstance(deco, ast.Call) else deco
                if getattr(target, "id", getattr(target, "attr", None)) in _CACHES:
                    yield deco.lineno, "cache decorator"
    for node in tree.body:
        value = node.value if isinstance(node, (ast.Assign, ast.AnnAssign)) else None
        if (
            (isinstance(value, ast.Dict) and not value.keys)
            or (isinstance(value, ast.List) and not value.elts)
            or (
                isinstance(value, ast.Call)
                and getattr(value.func, "id", None) in _EMPTY_CALLS
                and not value.args
                and not value.keywords
            )
        ):
            yield node.lineno, "empty module-level container"


def test_the_lasting_state_guard_sees_every_form():
    source = (
        "import functools\nfrom contextvars import ContextVar\nfrom functools import cached_property\n"
        "A = {}\nB: list = []\nC = set()\nD = dict()\nE = ContextVar('e', default=None)\n"
        "@functools.lru_cache(maxsize=8)\ndef f(): pass\n@functools.cache\ndef g(): pass\n"
        "def h():\n    global A\n    local = {}\n"
        "class K:\n    @cached_property\n    def p(self): return {}\n"
    )
    assert sorted(line for line, _ in _lasting_state(ast.parse(source))) == [4, 5, 6, 7, 9, 11, 14]


@pytest.mark.parametrize("module", MODULES)
def test_module_holds_no_state_that_outlives_a_job(module):
    found = sorted(_lasting_state(_parse(module)))
    assert found == [], f"state that could outlive a job in {module}: {found}"


# __main__ runs the command line on import
@pytest.mark.parametrize("module", [m for m in MODULES if m != "__main__.py"])
def test_module_exports_only_names_it_defines(module):
    dotted = ("borelweyl/" + module[: -len(".py")]).replace("/", ".").removesuffix(".__init__")
    imported = importlib.import_module(dotted)
    missing = [name for name in getattr(imported, "__all__", ()) if not hasattr(imported, name)]
    assert missing == [], f"{dotted}.__all__ names what it does not define: {missing}"


def _unpacked_generators(tree):
    """Lines of every call that star-unpacks a generator expression."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and any(isinstance(arg, ast.Starred) and isinstance(arg.value, ast.GeneratorExp) for arg in node.args)
    ]


def test_the_unpacked_generator_guard_sees_every_call():
    source = (
        "lcm(*(x for x in row))\nf(1, *(x for x in row))\nobj.g(*(x for x in row), 2)\n"
        "lcm(*[x for x in row])\nh(*row)\nmax(x for x in row)\n"
    )
    assert _unpacked_generators(ast.parse(source)) == [1, 2, 3]


@pytest.mark.parametrize("module", MODULES)
def test_module_unpacks_no_generator_into_a_call(module):
    lines = _unpacked_generators(_parse(module))
    assert lines == [], f"calls in {module} star-unpack a generator expression at lines {lines}"
