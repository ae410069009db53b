"""Starting the command line loads no module it does not need.

Every `torbif` request is a fresh interpreter that imports `torbif.cli`
before it computes anything, so what that import pulls in is paid on each
call.  `dataclasses` brings `inspect`, `ast`, `dis` and `tokenize` with it;
the package's value types are plain classes so that none of them loads.
The gate compares module sets, not times, so it does not depend on the
speed of the machine.
"""

from __future__ import annotations

import json
import subprocess
import sys

from test_cli import module_env

UNWANTED = ("dataclasses", "inspect", "ast", "dis", "tokenize")


def loaded_modules(statement: str) -> set[str]:
    """The modules loaded once a fresh interpreter has run `statement`,
    with this checkout's package first on its path."""
    code = f"{statement}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=module_env(), check=True
    )
    return set(json.loads(result.stdout))


def test_cli_import_loads_no_unwanted_module():
    bare = loaded_modules("pass")
    started = loaded_modules("import torbif.cli")
    assert "torbif.cli" in started
    assert sorted(set(UNWANTED) & (started - bare)) == []


def test_gate_sees_an_unwanted_module():
    assert {"dataclasses", "inspect"} <= loaded_modules("import dataclasses") - loaded_modules("pass")
