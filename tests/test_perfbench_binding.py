"""The benchmark in perfbench/ binds to the package by name: its tracer wraps
module attributes and its workloads call public functions. A name the
package drops must fail here, not only in a benchmark run. The reference
oracles the benchmark checks its outputs against run here too, as a script."""

import json
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

_CODE = """
import ast, json, sys
from pathlib import Path

perfbench = Path(sys.argv[1])
sys.path.insert(0, str(perfbench))
import gtvmin
import tracing

# resolves every (module, attribute) of tracing.LAYERS
tracing.Tracer().install()
names = set()
for path in sorted(perfbench.glob("*.py")):
    tree = ast.parse(path.read_text())
    aliases = {
        alias.asname or alias.name
        for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names if alias.name == "gtvmin"
    }
    names |= {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name) and node.value.id in aliases
    }
    names |= {
        alias.name
        for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module == "gtvmin"
        for alias in node.names
    }
missing = [name for name in sorted(names) if not hasattr(gtvmin, name)]
print(json.dumps({"read": sorted(names), "missing": missing}))
"""


def test_benchmark_names_resolve_on_the_package():
    out = subprocess.run([sys.executable, "-c", _CODE, str(PERFBENCH)], capture_output=True, text=True, check=True)
    names = json.loads(out.stdout)
    # the walk finds what workloads.py and worker.py use
    assert {"GTVMinProblem", "QuadraticLoss", "cli", "solve_iterative"} <= set(names["read"])
    assert names["missing"] == []


def test_reference_oracles_pass_run_as_a_script():
    done = subprocess.run(
        [sys.executable, "perfbench/test_reference.py"], capture_output=True, text=True, cwd=PERFBENCH.parent
    )
    assert (done.returncode, done.stderr) == (0, "")
    lines = done.stdout.splitlines()
    assert len(lines) == 5 and all(line.startswith("[PASS] test_") for line in lines)
