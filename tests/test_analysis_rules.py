"""The invariant linter: one good/bad fixture pair per rule, the
suppression machinery, the CLI contract, and the self-check that
``src/`` itself is violation-free."""

import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

from tools.rrlint import ALL_RULES, RULES_BY_ID, SourceFile, main, run_source
from tools.rrlint.cli import build_parser

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


def lint(text: str, path: str = "pkg/mod.py", select: str | None = None):
    """Run the registry (or one rule) over an in-memory module."""
    rules = [RULES_BY_ID[select]] if select else list(ALL_RULES)
    return run_source(SourceFile(path, text), rules)


def codes(violations) -> list[str]:
    return [v.rule for v in violations]


# ---------------------------------------------------------------------------
# RR001 rng-discipline
# ---------------------------------------------------------------------------


def test_rr001_flags_legacy_module_state_rng():
    bad = "import numpy as np\nx = np.random.rand(3)\n"
    assert codes(lint(bad, select="RR001")) == ["RR001"]


def test_rr001_flags_unseeded_default_rng_outside_rng_module():
    bad = "import numpy as np\ngen = np.random.default_rng(7)\n"
    assert codes(lint(bad, select="RR001")) == ["RR001"]


def test_rr001_good_uses_ensure_rng_and_rng_module_is_exempt():
    good = (
        "from repro.utils.rng import ensure_rng\n"
        "gen = ensure_rng(7)\n"
        "x = gen.standard_normal(3)\n"
    )
    assert lint(good, select="RR001") == []
    # The sanctioned construction site may call default_rng directly.
    sanctioned = "import numpy as np\ngen = np.random.default_rng(s)\n"
    assert lint(sanctioned, path="src/repro/utils/rng.py", select="RR001") == []


def test_rr001_sees_through_import_aliases():
    bad = "from numpy import random as nr\nnr.shuffle(x)\n"
    assert codes(lint(bad, select="RR001")) == ["RR001"]


# ---------------------------------------------------------------------------
# RR004 api-surface
# ---------------------------------------------------------------------------


def test_rr004_flags_drifted_all():
    bad = (
        '__all__ = ["ghost"]\n'
        "def helper(x: int) -> int:\n"
        '    """Doc."""\n'
        "    return x\n"
    )
    found = lint(bad, select="RR004")
    # ghost is listed but undefined; helper is defined but unexported.
    assert [v.message for v in found] == [
        "__all__ lists `ghost` which is not defined in the module",
        "public function `helper` is not exported in __all__ (export it "
        "or underscore-prefix it)",
    ]


def test_rr004_good_all_matches_public_names():
    good = (
        '__all__ = ["helper", "LIMIT"]\n'
        "LIMIT = 3\n"
        "def helper(x: int) -> int:\n"
        '    """Doc."""\n'
        "    return x\n"
        "def _private(x: int) -> int:\n"
        "    return x\n"
    )
    assert lint(good, select="RR004") == []


def test_rr004_flags_missing_docstring():
    bad = (
        "class Box:\n"
        '    """Doc."""\n'
        "    def open(self) -> None:\n"
        "        pass\n"
        "def helper(x: int) -> int:\n"
        "    return x\n"
    )
    found = lint(bad, select="RR004")
    assert [v.message for v in found] == [
        "public method `open` missing docstring",
        "public function `helper` missing docstring",
    ]


def test_rr004_good_documented_and_leaves_annotations_to_mypy():
    good = (
        "class Box:\n"
        '    """Doc."""\n'
        "    def __init__(self, size):\n"  # dunder: data-model contract
        "        self.size = size\n"
        "    def open(self, mode):\n"
        '        """Doc."""\n'
        "        return mode\n"
        "def helper(x):\n"
        '    """Doc."""\n'
        "    return x\n"
    )
    # Unannotated parameters and returns are mypy --strict's finding,
    # not RR004's.
    assert lint(good, select="RR004") == []


# ---------------------------------------------------------------------------
# RR005 no-assert
# ---------------------------------------------------------------------------


def test_rr005_flags_assert():
    bad = (
        "def f(xs=None):\n"
        '    """Doc."""\n'
        "    assert xs\n"
        "    return xs\n"
    )
    assert codes(lint(bad, select="RR005")) == ["RR005"]


def test_rr005_good_none_default_and_raise():
    good = (
        "def f(xs=None):\n"
        '    """Doc."""\n'
        "    if not xs:\n"
        '        raise ValueError("empty")\n'
        "    return xs\n"
    )
    assert lint(good, select="RR005") == []


# ---------------------------------------------------------------------------
# RR007 broad-except-discipline
# ---------------------------------------------------------------------------


def test_rr007_flags_silent_broad_handlers():
    bad = (
        "try:\n"
        "    f()\n"
        "except Exception:\n"
        "    pass\n"
        "try:\n"
        "    g()\n"
        "except:\n"
        "    ...\n"
    )
    assert codes(lint(bad, select="RR007")) == ["RR007", "RR007"]


def test_rr007_good_narrow_or_acting_handlers():
    good = (
        "import warnings\n"
        "try:\n"
        "    f()\n"
        "except FileNotFoundError:\n"
        "    pass\n"  # narrow + silent: documents what it expects
        "try:\n"
        "    g()\n"
        "except Exception as exc:\n"
        "    warnings.warn(f'unexpected: {exc!r}')\n"  # broad but acts
    )
    assert lint(good, select="RR007") == []


# ---------------------------------------------------------------------------
# RR008 resource-lifecycle
# ---------------------------------------------------------------------------


def test_rr008_flags_straight_line_resource_use():
    bad = (
        "def leak(path):\n"
        '    """Doc."""\n'
        "    handle = open(path)\n"
        "    data = handle.read()\n"
        "    handle.close()\n"  # straight-line close: leaks on exception
        "    return data\n"
    )
    assert codes(lint(bad, select="RR008")) == ["RR008"]


def test_rr008_flags_unbound_acquisition():
    bad = (
        "def peek(path):\n"
        '    """Doc."""\n'
        "    return open(path).read()\n"
    )
    assert codes(lint(bad, select="RR008")) == ["RR008"]


def test_rr008_good_with_try_finally_and_finalize():
    good = (
        "import weakref\n"
        "from concurrent.futures import ThreadPoolExecutor\n"
        "def read(path):\n"
        '    """Doc."""\n'
        "    with open(path) as handle:\n"
        "        return handle.read()\n"
        "def guarded(path):\n"
        '    """Doc."""\n'
        "    handle = open(path)\n"
        "    try:\n"
        "        return handle.read()\n"
        "    finally:\n"
        "        handle.close()\n"
        "class Serving:\n"
        '    """Doc."""\n'
        "    def start(self):\n"
        '        """Doc."""\n'
        "        self._pool = ThreadPoolExecutor(2)\n"
        "        weakref.finalize(self, _cleanup, self._pool)\n"
    )
    assert lint(good, select="RR008") == []


def test_rr008_good_escape():
    # Returned resources transfer ownership to the caller.
    escape = (
        "import numpy as np\n"
        "def view(path):\n"
        '    """Doc."""\n'
        "    return np.memmap(path, dtype='uint8', mode='r')\n"
    )
    assert lint(escape, select="RR008") == []


@pytest.mark.parametrize(
    "path", ["src/repro/serving/sharded.py", "src/repro/api.py"]
)
def test_rr008_flags_linear_archive_handoff_on_every_path(path):
    # Open, record the name, read, close: a leak if the read raises.
    # No module is exempt from that, the serving layer included.
    handoff = (
        "import zipfile\n"
        "def _members(journal, path):\n"
        '    """Doc."""\n'
        "    archive = zipfile.ZipFile(path)\n"
        "    _journal_record(journal, archive.filename)\n"
        "    names = archive.namelist()\n"
        "    archive.close()\n"
        "    return names\n"
    )
    assert codes(lint(handoff, path=path, select="RR008")) == ["RR008"]


# ---------------------------------------------------------------------------
# RR009 exception-flow
# ---------------------------------------------------------------------------


_RR009_PRELUDE = (
    "class BoomError(RuntimeError):\n"
    '    """Boom."""\n'
    "def _helper():\n"
    '    """Doc."""\n'
    '    raise BoomError("x")\n'
)


def test_rr009_flags_undocumented_escapee_through_call_graph():
    bad = _RR009_PRELUDE + (
        "def public_api():\n"
        '    """Does a thing."""\n'
        "    return _helper()\n"
    )
    found = lint(bad, select="RR009")
    assert codes(found) == ["RR009"]
    assert "BoomError" in found[0].message


def test_rr009_good_documented_or_caught():
    documented = _RR009_PRELUDE + (
        "def public_api():\n"
        '    """Does a thing; raises BoomError when x is bad."""\n'
        "    return _helper()\n"
    )
    assert lint(documented, select="RR009") == []
    caught = _RR009_PRELUDE + (
        "def safe_api():\n"
        '    """Never raises BoomError upward."""\n'
        "    try:\n"
        "        return _helper()\n"
        "    except BoomError:\n"
        "        return None\n"
    )
    assert lint(caught, select="RR009") == []


def test_rr009_flags_stale_raises_section():
    stale = (
        "class BoomError(RuntimeError):\n"
        '    """Boom."""\n'
        "def public_api():\n"
        '    """Does a thing.\n'
        "\n"
        "    Raises\n"
        "    ------\n"
        "    BoomError\n"
        "        never actually raised.\n"
        '    """\n'
        "    return 1\n"
    )
    found = lint(stale, select="RR009")
    assert codes(found) == ["RR009"]
    assert "cannot reach" in found[0].message


# ---------------------------------------------------------------------------
# RR011 layering
# ---------------------------------------------------------------------------


def test_rr011_flags_upward_eager_import():
    bad = "from repro.serving.sharded import ShardedIndex\n"
    found = lint(bad, path="src/repro/core/widget.py", select="RR011")
    assert codes(found) == ["RR011"]
    assert "layer" in found[0].message


def test_rr011_good_downward_or_lazy_import():
    down = "from repro.core.family import DSHFamily\n"
    assert lint(down, path="src/repro/serving/widget.py", select="RR011") == []
    lazy = (
        "def load_sharded(path):\n"
        '    """Doc."""\n'
        "    from repro.serving.sharded import ShardedIndex\n"
        "    return ShardedIndex.load(path)\n"
    )
    assert lint(lazy, path="src/repro/api.py", select="RR011") == []
    guarded = (
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    from repro.serving.sharded import ShardedIndex\n"
    )
    assert lint(guarded, path="src/repro/core/widget.py", select="RR011") == []


# ---------------------------------------------------------------------------
# Suppression machinery
# ---------------------------------------------------------------------------

_SEED = "import numpy as np\nnp.random.seed(0)"


def test_noqa_blanket_and_coded_suppression():
    assert lint(_SEED + "  # noqa\n", select="RR001") == []
    assert lint(_SEED + "  # noqa: RR001\n", select="RR001") == []
    # A noqa for a *different* rule does not suppress.
    assert codes(lint(_SEED + "  # noqa: RR005\n", select="RR001")) == [
        "RR001"
    ]
    # A list mixing another tool's codes with an RR code suppresses it.
    assert lint(_SEED + "  # noqa: E731, RR001\n", select="RR001") == []


@pytest.mark.parametrize("foreign", ["F401", "E731", "F401, E731"])
def test_noqa_listing_only_foreign_codes_does_not_suppress(foreign):
    # A flake8 code list is not a bare noqa: it silences no RR rule.
    coded = lint(_SEED + f"  # noqa: {foreign}\n", select="RR001")
    assert codes(coded) == ["RR001"]


def test_noqa_comma_list_tolerates_spaces():
    # One line that violates both RR001 and RR005.
    both = "import numpy as np\nassert np.random.rand()"
    assert sorted(codes(lint(both + "\n"))) == ["RR001", "RR005"]
    src = both + "  # noqa: RR001, RR005\n"
    assert lint(src, select="RR001") == []
    assert lint(src, select="RR005") == []
    spaced = both + "  # noqa:  RR005 , RR001\n"
    assert lint(spaced) == []


def test_noqa_inside_string_literal_does_not_suppress():
    # The marker only counts as a directive in a COMMENT token; the same
    # text inside a string literal on the flagged line must not suppress.
    src = 'assert validate("ok # noqa: RR005")\n'
    assert codes(lint(src, select="RR005")) == ["RR005"]
    blanket = 'assert validate("ok # noqa")\n'
    assert codes(lint(blanket, select="RR005")) == ["RR005"]
    # ... while a real trailing comment on the same line still works.
    mixed = 'assert validate("ok # noqa")  # noqa: RR005\n'
    assert lint(mixed, select="RR005") == []


# ---------------------------------------------------------------------------
# CLI contract
# ---------------------------------------------------------------------------


def test_cli_exit_codes_and_json_report(tmp_path, capsys):
    clean = tmp_path / "clean.py"
    clean.write_text("x: int = 1\n")
    dirty = tmp_path / "dirty.py"
    dirty.write_text(_SEED + "\n")

    assert main([str(clean)]) == 0
    assert main([str(dirty)]) == 1
    capsys.readouterr()

    code = main([str(dirty), "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["files_checked"] == 1
    assert [v["rule"] for v in payload["violations"]] == ["RR001"]
    assert {r["id"] for r in payload["rules"]} == set(RULES_BY_ID)
    assert payload["parse_errors"] == []

    assert main(["--select", "RRXXX", str(clean)]) == 2
    assert main([str(tmp_path / "missing_dir")]) == 2


def test_cli_surface_is_paths_format_select_list_rules():
    options = {
        option
        for action in build_parser()._actions
        for option in (action.option_strings or [action.dest])
    }
    assert options == {
        "paths", "--format", "--select", "--list-rules", "-h", "--help"
    }


def test_cli_select_rejects_empty_list_and_accepts_lowercase(tmp_path, capsys):
    dirty = tmp_path / "dirty.py"
    dirty.write_text(_SEED + "\n")

    # An all-separator selection is an error, not "run everything".
    assert main(["--select", ",,", str(dirty)]) == 2
    assert main(["--select", " , ", str(dirty)]) == 2
    assert "empty rule list" in capsys.readouterr().err

    # Codes are case-insensitive and comma lists may carry spaces.
    assert main(["--select", "rr001", str(dirty)]) == 1
    assert main(["--select", "rr005, RR001", str(dirty)]) == 1
    assert main(["--select", "rr005", str(dirty)]) == 0


def test_cli_reports_parse_errors_as_failures(tmp_path, capsys):
    broken = tmp_path / "broken.py"
    broken.write_text("def f(:\n")
    assert main([str(broken)]) == 1
    assert "parse error" in capsys.readouterr().out


def test_cli_reports_non_utf8_source_as_parse_error(tmp_path, capsys):
    latin1 = tmp_path / "latin1.py"
    latin1.write_bytes('x = "\xe9"\n'.encode("latin-1"))
    (tmp_path / "clean.py").write_text("x = 1\n")

    assert main([str(latin1)]) == 1
    lines = capsys.readouterr().out.splitlines()
    errors = [line for line in lines if line.startswith("parse error:")]
    assert len(errors) == 1 and str(latin1) in errors[0]
    assert lines == errors + ["0 files checked: 0 violation(s)"]

    assert main(["--format", "json", str(tmp_path)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["version"] == 2
    assert report["files_checked"] == 1
    assert report["violations"] == []
    [error] = report["parse_errors"]
    assert str(latin1) in error and "utf-8" in error


# ---------------------------------------------------------------------------
# Self-check: the repo holds its own bar
# ---------------------------------------------------------------------------


def test_src_is_violation_free():
    assert main([str(REPO_ROOT / "src")]) == 0


def test_linter_is_not_shipped_in_the_library():
    """The distribution packages only ``repro``; the linter lives in the
    dev-only ``tools`` tree, so no ``repro.analysis`` package is left
    under ``src/`` for ``find_packages`` to pick up."""
    src = REPO_ROOT / "src"
    packages = {
        init.parent.relative_to(src).as_posix()
        for init in src.rglob("__init__.py")
    }
    assert "repro" in packages
    assert all(p == "repro" or p.startswith("repro/") for p in packages)
    assert not any(
        p == "repro/analysis" or p.startswith("repro/analysis/")
        for p in packages
    )


def test_linter_is_stdlib_only():
    """The linter runs without ``repro`` on the path and imports no
    third-party package, so it stays out of the shipped library."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    probe = (
        "import sys\n"
        "from tools.rrlint import main\n"
        "assert main(['--list-rules']) == 0\n"
        "loaded = {name.split('.')[0] for name in sys.modules}\n"
        "print(sorted(loaded & {'repro', 'numpy', 'scipy'}))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env=env,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"


@pytest.mark.skipif(shutil.which("mypy") is None, reason="mypy not installed")
def test_mypy_strict_gate():
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "mypy",
            "--config-file",
            str(REPO_ROOT / "mypy.ini"),
            str(REPO_ROOT / "src" / "repro"),
            str(REPO_ROOT / "tools" / "rrlint"),
        ],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )
    assert result.returncode == 0, result.stdout + result.stderr
