"""``python -m tools.rrlint`` — run the invariant linter."""

from __future__ import annotations

import sys

from tools.rrlint.cli import main

if __name__ == "__main__":
    sys.exit(main())
