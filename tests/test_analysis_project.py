"""Call-graph and project-model corner cases for :mod:`tools.rrlint.project`.

Complements ``test_analysis_rules.py`` (which exercises the rules built on
top): here we pin down the conservative resolver itself — aliased import
chains, ``__init__`` re-exports, static/classmethod dispatch, executor
submissions whose targets must stay *unresolved* rather than guessed,
partial unwrapping, raise-set filtering, and cycle/layer bookkeeping.
"""

from __future__ import annotations

from tools.rrlint import SourceFile
from tools.rrlint.project import (
    PACKAGE_LAYERS,
    Project,
    layer_of,
    module_name_for_path,
)


def build(*files: tuple[str, str]) -> Project:
    """Project from ``(path, text)`` pairs; names derived from paths."""
    sources = [SourceFile(path, text) for path, text in files]
    return Project.from_sources(sources)


# ---------------------------------------------------------------------------
# Module naming and layers
# ---------------------------------------------------------------------------


def test_module_name_for_path_strips_src_and_init():
    assert module_name_for_path("src/repro/core/cpf.py") == "repro.core.cpf"
    assert module_name_for_path("src/repro/index/__init__.py") == "repro.index"
    assert module_name_for_path("pkg/mod.py") == "pkg.mod"


def test_layer_of_covers_known_packages_and_exempts_unranked():
    assert layer_of("repro.core.cpf") == PACKAGE_LAYERS["core"]
    assert layer_of("repro.serving.sharded") == PACKAGE_LAYERS["serving"]
    assert layer_of("repro.core") < layer_of("repro.index.backends")
    # Unlisted subpackages and the package root are outside the layer
    # order.
    assert layer_of("repro.unlisted.module") is None
    assert layer_of("repro") is None
    assert layer_of("somewhere.else") is None


# ---------------------------------------------------------------------------
# Aliased imports and __init__ re-exports
# ---------------------------------------------------------------------------


def test_resolve_chases_aliased_import_chain():
    project = build(
        ("src/pkg/__init__.py", ""),
        ("src/pkg/moda.py", "def f():\n    '''Doc.'''\n    return 1\n"),
        ("src/pkg/modb.py", "from pkg.moda import f as g\n"),
        ("src/pkg/modc.py", "from pkg.modb import g as h\n"),
    )
    assert project.resolve("pkg.modb", "g") == ("pkg.moda", "f")
    # Two hops: modc.h -> modb.g -> moda.f.
    assert project.resolve("pkg.modc", "h") == ("pkg.moda", "f")


def test_resolve_through_package_init_reexport():
    project = build(
        ("src/pkg/__init__.py", "from pkg.impl import run\n"),
        ("src/pkg/impl.py", "def run():\n    '''Doc.'''\n    return 1\n"),
        ("src/app.py", "from pkg import run\n"),
    )
    assert project.resolve("app", "run") == ("pkg.impl", "run")


def test_resolve_module_alias_and_attribute_access():
    project = build(
        ("src/pkg/__init__.py", ""),
        ("src/pkg/moda.py", "def f():\n    '''Doc.'''\n    return 1\n"),
        ("src/use.py", "import pkg.moda as pm\n"),
    )
    assert project.resolve("use", "pm.f") == ("pkg.moda", "f")


def test_resolve_survives_reexport_cycles():
    project = build(
        ("src/a.py", "from b import thing\n"),
        ("src/b.py", "from a import thing\n"),
    )
    # A circular re-export must terminate, not recurse forever.
    assert project.resolve("a", "thing") is None


# ---------------------------------------------------------------------------
# Method dispatch: static/classmethods and var-typed locals
# ---------------------------------------------------------------------------


_CLS = (
    "class Builder:\n"
    "    '''Doc.'''\n"
    "    @staticmethod\n"
    "    def util(x):\n"
    "        '''Doc.'''\n"
    "        return x\n"
    "    @classmethod\n"
    "    def make(cls):\n"
    "        '''Doc.'''\n"
    "        return cls()\n"
    "    def go(self):\n"
    "        '''Doc.'''\n"
    "        return self.util(1)\n"
)


def test_static_and_classmethod_dispatch_through_class_name():
    project = build(
        ("src/lib.py", _CLS),
        (
            "src/use.py",
            "from lib import Builder\n"
            "def drive():\n"
            "    '''Doc.'''\n"
            "    Builder.util(0)\n"
            "    return Builder.make()\n",
        ),
    )
    callees = project.callees("use", "drive")
    assert ("lib", "Builder.util") in callees
    assert ("lib", "Builder.make") in callees


def test_var_typed_local_dispatches_to_method():
    project = build(
        ("src/lib.py", _CLS),
        (
            "src/use.py",
            "from lib import Builder\n"
            "def drive():\n"
            "    '''Doc.'''\n"
            "    b = Builder()\n"
            "    return b.go()\n",
        ),
    )
    callees = project.callees("use", "drive")
    assert ("lib", "Builder.go") in callees
    # Constructing the class also reaches __init__ territory via self
    # dispatch inside go().
    assert ("lib", "Builder.util") in project.reachable("use", "drive")


# ---------------------------------------------------------------------------
# Executor submissions: the submitted callable is a callee, never guessed
# ---------------------------------------------------------------------------


_POOL_PRELUDE = (
    "from concurrent.futures import ProcessPoolExecutor\n"
    "from functools import partial\n"
    "def work(x, y=0):\n"
    "    '''Doc.'''\n"
    "    return x + y\n"
)


def test_submitted_top_level_target_is_a_callee():
    project = build(
        (
            "src/jobs.py",
            _POOL_PRELUDE
            + "def run():\n"
            "    '''Doc.'''\n"
            "    with ProcessPoolExecutor() as pool:\n"
            "        return pool.submit(work, 1).result()\n",
        )
    )
    assert project.callees("jobs", "run") == {("jobs", "work")}


def test_submitted_partial_is_unwrapped():
    project = build(
        (
            "src/jobs.py",
            _POOL_PRELUDE
            + "def run():\n"
            "    '''Doc.'''\n"
            "    with ProcessPoolExecutor() as pool:\n"
            "        return pool.submit(partial(work, y=2), 1).result()\n",
        )
    )
    assert project.callees("jobs", "run") == {("jobs", "work")}


def test_lambda_and_nested_function_submissions_stay_conservative():
    project = build(
        (
            "src/jobs.py",
            _POOL_PRELUDE
            + "def run():\n"
            "    '''Doc.'''\n"
            "    def inner(x):\n"
            "        '''Doc.'''\n"
            "        return x\n"
            "    with ProcessPoolExecutor() as pool:\n"
            "        a = pool.submit(lambda: 1)\n"
            "        b = pool.submit(inner, 1)\n"
            "        return a, b\n",
        )
    )
    # A nested function is *not* guessed to be the top-level symbol of
    # the same name, and a lambda is no callee at all.
    assert project.callees("jobs", "run") == set()


def test_pool_attribute_assigned_from_executor_is_typed():
    project = build(
        (
            "src/serve.py",
            "from concurrent.futures import ThreadPoolExecutor\n"
            "def work(x):\n"
            "    '''Doc.'''\n"
            "    return x\n"
            "class Server:\n"
            "    '''Doc.'''\n"
            "    def __init__(self):\n"
            "        '''Doc.'''\n"
            "        self._pool = ThreadPoolExecutor(2)\n"
            "    def handle(self):\n"
            "        '''Doc.'''\n"
            "        pool = self._pool\n"
            "        return pool.submit(work, 1).result()\n",
        )
    )
    assert project.callees("serve", "Server.handle") == {("serve", "work")}


# ---------------------------------------------------------------------------
# Raise sets: propagation and catch filtering
# ---------------------------------------------------------------------------


_RAISES = (
    "class AlphaError(RuntimeError):\n"
    "    '''Doc.'''\n"
    "class BetaError(ValueError):\n"
    "    '''Doc.'''\n"
    "def low():\n"
    "    '''Doc.'''\n"
    "    raise AlphaError('a')\n"
    "def mid():\n"
    "    '''Doc.'''\n"
    "    low()\n"
    "    raise BetaError('b')\n"
)


def test_raise_set_propagates_through_call_graph():
    project = build(
        (
            "src/lib.py",
            _RAISES
            + "def high():\n"
            "    '''Doc.'''\n"
            "    return mid()\n",
        )
    )
    names = {name for _, name in project.raise_set("lib", "high")}
    assert {"AlphaError", "BetaError"} <= names


def test_raise_set_filters_caught_exceptions_but_keeps_reraise():
    project = build(
        (
            "src/lib.py",
            _RAISES
            + "def quiet():\n"
            "    '''Doc.'''\n"
            "    try:\n"
            "        return mid()\n"
            "    except AlphaError:\n"
            "        return None\n"
            "def loud():\n"
            "    '''Doc.'''\n"
            "    try:\n"
            "        return mid()\n"
            "    except AlphaError:\n"
            "        raise\n",
        )
    )
    quiet = {name for _, name in project.raise_set("lib", "quiet")}
    assert "AlphaError" not in quiet and "BetaError" in quiet
    # A handler that re-raises does not swallow.
    loud = {name for _, name in project.raise_set("lib", "loud")}
    assert "AlphaError" in loud


def test_catching_base_class_swallows_subclass():
    project = build(
        (
            "src/lib.py",
            _RAISES
            + "def base_caught():\n"
            "    '''Doc.'''\n"
            "    try:\n"
            "        return low()\n"
            "    except RuntimeError:\n"
            "        return None\n",
        )
    )
    # AlphaError subclasses RuntimeError: catching the base swallows it.
    assert project.raise_set("lib", "base_caught") == frozenset()


def test_is_exception_class_uses_project_and_builtin_ancestry():
    project = build(("src/lib.py", _RAISES))
    assert project.is_exception_class(("lib", "AlphaError"))
    assert not project.is_exception_class(("lib", "low"))


# ---------------------------------------------------------------------------
# Import graph: cycles and lazy edges
# ---------------------------------------------------------------------------


def test_import_cycles_detects_eager_scc_and_ignores_lazy():
    cyclic = build(
        ("src/a.py", "import b\n"),
        ("src/b.py", "import c\n"),
        ("src/c.py", "import a\n"),
    )
    assert cyclic.import_cycles() == (("a", "b", "c"),)
    lazy = build(
        ("src/a.py", "import b\n"),
        (
            "src/b.py",
            "def back():\n"
            "    '''Doc.'''\n"
            "    import a\n"
            "    return a\n",
        ),
    )
    # A function-scoped back-edge is lazy and breaks no cycle.
    assert lazy.import_cycles() == ()

