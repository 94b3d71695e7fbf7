"""``scripts/reach.py``'s accounting, checked without running its inputs.

A function is a named ``def``; the lambdas, comprehensions and generator
expressions inside it count as its body, and its ``def`` line does not.
The snippet puts a generator-expression body (line 3) and a lambda body
(line 8) on lines that only the anonymous code objects carry.
"""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

SNIPPET = '''\
def squares(xs):
    total = sum(
        x * x
        for x in xs
    )
    key = (
        lambda x:
        -x
    )
    return sorted(
        [y + total
         for y in xs],
        key=key,
    )


class Box:
    def method(self):
        def helper():
            return 1
        return helper()


top = [n for n in range(3)]
'''


def _reach():
    spec = importlib.util.spec_from_file_location("reach", SCRIPTS / "reach.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_functions_yield_named_defs_with_their_anonymous_bodies():
    reach = _reach()
    module = compile(SNIPPET, "<snippet>", "exec")
    found = {
        (code.co_name, code.co_firstlineno): body
        for code, body in reach._functions(module)
    }
    assert found == {
        ("squares", 1): {2, 3, 4, 6, 7, 8, 10, 11, 12, 13},
        ("method", 18): {19, 21},
        ("helper", 19): {20},
    }


def test_every_input_script_exists():
    reach = _reach()
    assert reach.SCRIPTS
    for name, _args in reach.SCRIPTS:
        assert (SCRIPTS / name).is_file(), name
