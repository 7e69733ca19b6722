from __future__ import annotations

import importlib
import pkgutil
import re

import pytest

import hfib
from hfib import algebra, cli, fibonacci, genfun, kernels, operators, pascal, qh, report


def _package_caches() -> dict:
    """Every lru_cache defined in an hfib module, found by inspection."""
    found = {}
    for module in (algebra, cli, fibonacci, genfun, kernels, operators, pascal, qh, report):
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear") and obj.__module__.startswith("hfib"):
                found[obj.__qualname__] = obj
    return found


def _compute() -> list:
    return [
        algebra.d_image(6),
        fibonacci.classical_fib(20),
        fibonacci.hfib_diagonal(8),
        fibonacci.hfib_recurrence(8),
        genfun.build_gf("fib"),
        operators.fib_op(9),
        operators.neg_fib_op(5),
        pascal.h_binomial(6, 3),
        qh.q_binomial(6, 3),
        qh.qh_binomial(5, 2),
        qh.q_fibonacci(7),
        qh._q_diagonal(7, 1),
    ]


def test_clear_caches_empties_every_cache() -> None:
    caches = _package_caches()
    assert set(caches.values()) == set(hfib._CACHES)
    before = _compute()
    assert all(cache.cache_info().currsize for cache in caches.values())
    hfib.clear_caches()
    assert {name: c.cache_info().currsize for name, c in caches.items()} == dict.fromkeys(caches, 0)
    after = _compute()
    assert after == before


def _module_state() -> dict:
    """(module, name) -> the object bound there, for every module of the package."""
    modules = [hfib] + [
        importlib.import_module(f"hfib.{info.name}") for info in pkgutil.iter_modules(hfib.__path__)
    ]
    return {(module.__name__, name): obj for module in modules for name, obj in vars(module).items()}


def test_the_caches_are_the_only_state() -> None:
    # a run rebinds no module-level name and changes no module-level container,
    # so what clear_caches() empties is all the state the package holds
    hfib.clear_caches()
    before = _module_state()
    contents = {key: obj.copy() for key, obj in before.items() if type(obj) in (dict, list, set)}
    _compute()
    fibonacci.verify_fibonacci()
    after = _module_state()
    assert after.keys() == before.keys()
    assert [key for key, obj in after.items() if obj is not before[key]] == []
    assert [key for key, copy in contents.items() if after[key] != copy] == []


# (cache, an argument tuple it refuses, the integer call that warms it); the
# float arguments hash and compare equal to the integer ones.  The binomials
# and annihilator refuse a float index before the range test, so also above
# the row.
_REFUSED = {
    "h_binomial": (pascal.h_binomial, (5.0, 2), (5, 2)),
    "h_binomial above the row": (pascal.h_binomial, (5.0, 7), (5, 7)),
    "qh_binomial": (qh.qh_binomial, (5.0, 2), (5, 2)),
    "qh_binomial with a float k": (qh.qh_binomial, (5, 2.0), (5, 2)),
    "q_binomial": (qh.q_binomial, (5.0, 2), (5, 2)),
    "annihilator": (operators.annihilator, (2, 1.0), (2, 1)),
    "annihilator with a float k": (operators.annihilator, (2.0, 1), (2, 1)),
    "_q_diagonal": (qh._q_diagonal, (7.0, 1), (7, 1)),
}


def test_the_refusal_table_covers_every_multi_argument_cache() -> None:
    many = {name for name, cache in _package_caches().items() if cache.__wrapped__.__code__.co_argcount > 1}
    assert many <= set(_REFUSED)


@pytest.mark.parametrize("name", _REFUSED)
def test_a_refused_call_raises_alike_cold_and_warm(name) -> None:
    cache, refused, warm = _REFUSED[name]
    hfib.clear_caches()
    with pytest.raises((TypeError, ValueError)) as cold_error:
        cache(*refused)
    cache(*warm)
    with pytest.raises(cold_error.type, match=re.escape(str(cold_error.value))):
        cache(*refused)
